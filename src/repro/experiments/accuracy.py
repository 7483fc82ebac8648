"""The accuracy sweeps of Figures 8, 9 and 10: one loop, one table of figures.

A sweep varies the number of simultaneous object faults (1..10 in the paper)
and, for every fault count, runs many independent trials.  Each trial
(:func:`~repro.experiments.common.run_trial`) injects the faults into a
freshly restored deployment, runs the system's L-T check once and its
localization (:meth:`ScoutSystem.localize`: risk model, augmentation,
algorithm) once per localizer — SCOUT and SCORE at one or more thresholds —
and each is scored against the injected ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Literal, Optional, Sequence

from ..core.metrics import accuracy
from ..core.system import ScoutSystem
from ..faults.injector import FaultInjector
from ..workloads.profiles import simulation_profile, testbed_profile
from .common import (
    DeployedWorkload,
    make_localizers,
    mean_and_stdev,
    prepare_workload,
    run_trial,
)

__all__ = [
    "ACCURACY_FIGURES",
    "AccuracyCell",
    "AccuracySweepResult",
    "format_accuracy_figure",
    "format_accuracy_table",
    "run_accuracy_figure",
    "run_accuracy_sweep",
]

Scope = Literal["switch", "controller"]

#: Figure number -> its sweep: ``profile`` plus :func:`run_accuracy_sweep`'s
#: keyword arguments.  Fig. 8 (E4) injects the faults into one switch's scope
#: of the simulated cluster policy (the paper: SCOUT's recall 20-30% above
#: SCORE's at equal precision, SCORE's threshold barely helping); Fig. 9 (E5)
#: across switches, localized on the controller risk model (same trends);
#: Fig. 10 (E6) into the small low-sharing testbed policy, SCORE's threshold
#: fixed at 1.0 (SCOUT at 100% recall / ~98% precision below four faults,
#: degrading beyond five, SCORE's recall trailing by 20-50%).
ACCURACY_FIGURES: Dict[int, Dict] = {
    8: dict(
        scope="switch",
        profile=simulation_profile,
        runs=30,
        seed=8,
        score_thresholds=(1.0, 0.6),
    ),
    9: dict(
        scope="controller",
        profile=simulation_profile,
        runs=30,
        seed=9,
        score_thresholds=(1.0, 0.6),
    ),
    10: dict(
        scope="controller",
        profile=testbed_profile,
        runs=10,
        seed=10,
        score_thresholds=(1.0,),
    ),
}


@dataclass(frozen=True)
class AccuracyCell:
    """One (algorithm, fault count) cell of an accuracy figure."""

    algorithm: str
    num_faults: int
    precision_mean: float
    precision_std: float
    recall_mean: float
    recall_std: float
    f1_mean: float
    runs: int


@dataclass
class AccuracySweepResult:
    """All cells of one accuracy sweep, plus the sweep's configuration."""

    scope: Scope
    profile_name: str
    runs: int
    cells: List[AccuracyCell] = field(default_factory=list)

    def cell(self, algorithm: str, num_faults: int) -> Optional[AccuracyCell]:
        for cell in self.cells:
            if cell.algorithm == algorithm and cell.num_faults == num_faults:
                return cell
        return None

    def algorithms(self) -> List[str]:
        return sorted({cell.algorithm for cell in self.cells})

    def fault_counts(self) -> List[int]:
        return sorted({cell.num_faults for cell in self.cells})


def run_accuracy_sweep(
    deployed: DeployedWorkload,
    scope: Scope = "switch",
    fault_counts: Sequence[int] = tuple(range(1, 11)),
    runs: int = 30,
    seed: int = 1,
    score_thresholds: Sequence[float] = (1.0, 0.6),
) -> AccuracySweepResult:
    """Run the full sweep on an already deployed workload."""
    controller = deployed.controller
    localizers = make_localizers(controller, score_thresholds=score_thresholds)
    # One system per localizer, object risks only: the injected ground truth
    # is policy objects, never a switch.
    systems = {
        name: ScoutSystem(controller, localizer=localizer, include_switch_risks=False)
        for name, localizer in localizers.items()
    }
    rng = random.Random(seed)

    # Per (algorithm, count) lists of precision/recall/f1 samples.
    samples: Dict[tuple, Dict[str, List[float]]] = {}

    for num_faults in fault_counts:
        for _ in range(runs):
            deployed.restore()
            injector, reports = run_trial(
                controller,
                systems,
                partial(_inject_faults, deployed, scope, num_faults, rng),
                scope,
                rng=random.Random(rng.randint(0, 2**31)),
            )
            if not injector.injected:
                continue

            ground_truth = injector.ground_truth()
            for name, report in reports.items():
                result = accuracy(ground_truth, report.faulty_objects())
                bucket = samples.setdefault(
                    (name, num_faults), {"p": [], "r": [], "f": []}
                )
                bucket["p"].append(result.precision)
                bucket["r"].append(result.recall)
                bucket["f"].append(result.f1)

    deployed.restore()
    sweep = AccuracySweepResult(
        scope=scope, profile_name=deployed.workload.profile.name, runs=runs
    )
    for (name, num_faults), bucket in sorted(samples.items()):
        p_mean, p_std = mean_and_stdev(bucket["p"])
        r_mean, r_std = mean_and_stdev(bucket["r"])
        f_mean, _ = mean_and_stdev(bucket["f"])
        sweep.cells.append(
            AccuracyCell(
                algorithm=name,
                num_faults=num_faults,
                precision_mean=p_mean,
                precision_std=p_std,
                recall_mean=r_mean,
                recall_std=r_std,
                f1_mean=f_mean,
                runs=len(bucket["p"]),
            )
        )
    return sweep


def run_accuracy_figure(
    number: int,
    fault_counts: Sequence[int] = tuple(range(1, 11)),
    runs: Optional[int] = None,
    deployed: Optional[DeployedWorkload] = None,
) -> AccuracySweepResult:
    """Run Figure ``number``'s sweep (:data:`ACCURACY_FIGURES`), on its own
    profile unless an already ``deployed`` workload is handed in."""
    figure = dict(ACCURACY_FIGURES[number])
    profile = figure.pop("profile")
    if runs is not None:
        figure["runs"] = runs
    return run_accuracy_sweep(
        deployed or prepare_workload(profile()), fault_counts=fault_counts, **figure
    )


def _inject_faults(
    deployed: DeployedWorkload,
    scope: Scope,
    num_faults: int,
    rng: random.Random,
    injector: FaultInjector,
) -> None:
    """One trial's faults: anywhere, or on a random leaf with enough
    faultable objects for the switch-scope figure (none if no leaf has)."""
    switches = None
    if scope == "switch":
        candidates = [
            switch_uid
            for switch_uid in deployed.fabric.leaf_uids()
            if len(injector.faultable_objects(switches=[switch_uid])) >= num_faults
        ]
        if not candidates:
            return
        switches = [rng.choice(candidates)]
    injector.inject_random_faults(num_faults, switches=switches, strict=False)


def format_accuracy_table(sweep: AccuracySweepResult, metric: str = "recall") -> str:
    """Render one sweep as the rows of the corresponding paper figure.

    ``metric`` is ``"precision"`` or ``"recall"`` (Figures 8-10 each have one
    panel per metric).
    """
    metric_attr = f"{metric}_mean"
    algorithms = sweep.algorithms()
    header = f"{'#faults':>8} | " + " | ".join(f"{name:>10}" for name in algorithms)
    lines = [
        f"{metric} on the {sweep.scope} risk model "
        f"({sweep.profile_name}, {sweep.runs} runs/point)",
        header,
        "-" * len(header),
    ]
    for count in sweep.fault_counts():
        cells = [sweep.cell(name, count) for name in algorithms]
        values = " | ".join(
            f"{getattr(cell, metric_attr):>10.3f}" if cell else f"{'n/a':>10}"
            for cell in cells
        )
        lines.append(f"{count:>8} | {values}")
    return "\n".join(lines)


def format_accuracy_figure(sweep: AccuracySweepResult) -> str:
    """Both panels of an accuracy figure: precision and recall versus fault count."""
    panels = (format_accuracy_table(sweep, metric=m) for m in ("precision", "recall"))
    return "\n\n".join(panels)
