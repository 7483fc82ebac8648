"""Experiment E2/E3 — Figure 7: suspect set reduction γ.

For every injected object fault the paper compares the number of objects
SCOUT reports (the hypothesis) against the number of objects the impacted
EPG pairs depend on (what an admin would otherwise inspect), and plots the
ratio γ binned by the raw suspect-set size.  The paper injects 200 faults in
the testbed and 1,500 in the simulation and observes γ below ~0.08 in most
bins, with the hypothesis never exceeding about 10 objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.metrics import bin_by_suspect_count
from ..core.system import ScoutSystem
from ..faults.base import FaultKind
from ..faults.injector import FaultInjector
from .common import DeployedWorkload, make_localizers, run_trial

__all__ = [
    "GammaSample",
    "Figure7Result",
    "run_suspect_reduction",
    "format_figure7",
    "TESTBED_BINS",
    "SIMULATION_BINS",
]

#: X-axis buckets used in Figure 7(a) (testbed) and 7(b) (simulation).
TESTBED_BINS: Sequence[Tuple[int, int]] = ((1, 10), (10, 20), (20, 40), (40, 60))
SIMULATION_BINS: Sequence[Tuple[int, int]] = (
    (1, 10),
    (10, 50),
    (50, 100),
    (100, 500),
    (500, 1000),
)

#: Seed of the fault draws (victim object and full/partial).
FAULT_SEED = 11


@dataclass(frozen=True)
class GammaSample:
    """One fault's suspect-set-reduction measurement."""

    object_uid: str
    kind: str
    suspect_count: int
    hypothesis_size: int
    gamma: float


@dataclass
class Figure7Result:
    """All γ samples of one setting plus the binned aggregation."""

    setting: str
    samples: List[GammaSample] = field(default_factory=list)
    bins: Sequence[Tuple[int, int]] = SIMULATION_BINS

    def binned(self) -> Dict[str, Dict[str, float]]:
        return bin_by_suspect_count(
            [(sample.suspect_count, sample.gamma) for sample in self.samples], self.bins
        )

    def max_hypothesis_size(self) -> int:
        return max((sample.hypothesis_size for sample in self.samples), default=0)


def run_suspect_reduction(
    deployed: DeployedWorkload,
    num_faults: int = 200,
    bins: Sequence[Tuple[int, int]] = SIMULATION_BINS,
    setting: str = "simulation",
) -> Figure7Result:
    """Inject ``num_faults`` independent single-object faults and measure γ."""
    controller = deployed.controller
    rng = random.Random(FAULT_SEED)
    scout = make_localizers(controller, score_thresholds=())["SCOUT"]
    systems = {
        "SCOUT": ScoutSystem(controller, localizer=scout, include_switch_risks=False)
    }
    result = Figure7Result(setting=setting, bins=bins)

    candidates = FaultInjector(controller).faultable_objects()
    if not candidates:
        return result

    def inject(injector: FaultInjector) -> None:
        object_uid = rng.choice(candidates)
        kind = rng.choice([FaultKind.FULL, FaultKind.PARTIAL])
        injector.inject_object_fault(object_uid, kind=kind)

    for _ in range(num_faults):
        deployed.restore()
        injector, reports = run_trial(
            controller,
            systems,
            inject,
            "controller",
            rng=random.Random(rng.randint(0, 2**31)),
        )
        report = reports["SCOUT"]
        suspects = report.risk_models["controller"].suspect_risks()
        if not suspects:
            continue
        fault = injector.injected[0]
        result.samples.append(
            GammaSample(
                object_uid=fault.object_uid,
                kind=fault.kind.value,
                suspect_count=len(suspects),
                hypothesis_size=len(report.faulty_objects()),
                gamma=report.suspect_reduction(),
            )
        )
    deployed.restore()
    return result


def format_figure7(result: Figure7Result) -> str:
    """Render the per-bin mean γ table (one panel of Figure 7)."""
    lines = [
        f"Figure 7 — suspect set reduction γ ({result.setting}, "
        f"{len(result.samples)} faults, max |hypothesis| = {result.max_hypothesis_size()})",
        f"{'#suspect objects':>18} | {'mean γ':>8} | {'max γ':>8} | {'samples':>8}",
    ]
    lines.append("-" * len(lines[1]))
    for label, stats in result.binned().items():
        lines.append(
            f"{label:>18} | {stats['mean_gamma']:>8.4f} | {stats['max_gamma']:>8.4f} | "
            f"{int(stats['samples']):>8}"
        )
    return "\n".join(lines)
