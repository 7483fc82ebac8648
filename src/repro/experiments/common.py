"""Shared infrastructure for the evaluation experiments.

The accuracy and suspect-set experiments all follow the same loop:

1. generate a workload and deploy it once;
2. snapshot the deployed TCAM state;
3. for every trial: restore the snapshot, then :func:`run_trial` — inject
   object faults, run the L-T check, localize with every system — and score
   against the injected ground truth;
4. aggregate across trials.

Deploying once and restoring TCAM snapshots (instead of redeploying) keeps a
30-run × 10-fault-count sweep tractable without changing any semantics: the
restored state is byte-identical to a fresh deployment.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..controller.controller import Controller
from ..core.score import ScoreLocalizer
from ..core.scout import RecentChangeOracle, ScoutLocalizer
from ..core.system import ScoutReport, ScoutSystem
from ..faults.injector import FaultInjector
from ..policy.graph import PolicyIndex
from ..rules import TcamRule
from ..workloads.generator import GeneratedWorkload, generate_workload
from ..workloads.profiles import WorkloadProfile

__all__ = [
    "CHANGE_WINDOW",
    "DeployedWorkload",
    "TcamSnapshot",
    "prepare_workload",
    "snapshot_tcam",
    "restore_tcam",
    "make_localizers",
    "mean_and_stdev",
    "run_trial",
]

#: Per-switch snapshot of installed rules keyed by match key.
TcamSnapshot = Dict[str, Dict[tuple, TcamRule]]

#: SCOUT's stage-2 recency window for every trial, in ticks of the logical clock.
CHANGE_WINDOW = 50


@dataclass
class DeployedWorkload:
    """A generated workload deployed once, with everything trials need cached."""

    workload: GeneratedWorkload
    controller: Controller
    index: PolicyIndex
    snapshot: TcamSnapshot

    @property
    def policy(self):
        return self.workload.policy

    @property
    def fabric(self):
        return self.workload.fabric

    def restore(self) -> None:
        """Reset every TCAM to the post-deployment snapshot."""
        restore_tcam(self.fabric, self.snapshot)


def prepare_workload(profile: WorkloadProfile) -> DeployedWorkload:
    """Generate, attach and deploy a workload; snapshot the resulting TCAM state."""
    workload = generate_workload(profile)
    controller = Controller(workload.policy, workload.fabric)
    controller.deploy()
    index = controller.build_index()
    snapshot = snapshot_tcam(workload.fabric)
    return DeployedWorkload(
        workload=workload,
        controller=controller,
        index=index,
        snapshot=snapshot,
    )


def snapshot_tcam(fabric) -> TcamSnapshot:
    """Capture every leaf's installed rules (keyed by match key)."""
    return {
        uid: {rule.match_key(): rule for rule in switch.deployed_rules()}
        for uid, switch in fabric.switches.items()
    }


def restore_tcam(fabric, snapshot: TcamSnapshot) -> None:
    """Reinstate a previously captured TCAM snapshot on every leaf: per
    leaf, one :meth:`~repro.fabric.tcam.TcamTable.write` that removes what
    the table holds and installs the snapshot's rules in their order, so a
    listener hears of each leaf's restore once."""
    for uid, entries in snapshot.items():
        tcam = fabric.switch(uid).tcam
        tcam.write(tcam.match_keys(), entries)


def make_localizers(
    controller: Controller,
    score_thresholds: Sequence[float] = (1.0, 0.6),
) -> Dict[str, object]:
    """The localizer line-up used by the accuracy figures: SCOUT vs SCORE-X."""
    localizers: Dict[str, object] = {
        "SCOUT": ScoutLocalizer(
            change_oracle=RecentChangeOracle(
                change_log=controller.change_log,
                window=CHANGE_WINDOW,
                fallback_latest=False,
            )
        )
    }
    for threshold in score_thresholds:
        localizer = ScoreLocalizer(hit_threshold=threshold)
        localizers[localizer.name] = localizer
    return localizers


def run_trial(
    controller: Controller,
    systems: Mapping[str, ScoutSystem],
    inject: Callable[[FaultInjector], object],
    scope: str,
    rng: Optional[random.Random] = None,
) -> Tuple[FaultInjector, Dict[str, ScoutReport]]:
    """One §VI trial: age the clock, inject, check once, localize per system.

    The clock first moves past :data:`CHANGE_WINDOW`, so SCOUT's stage 2
    sees this trial's change records and none of the deployment's or an
    earlier trial's.  ``inject`` faults the fabric through the trial's
    :class:`FaultInjector` (drawing from ``rng``); the L-T report is the
    first system's check, and every system localizes that one report.
    Returns the injector — its ``injected`` faults are the ground truth —
    and each system's report.
    """
    controller.clock.tick(CHANGE_WINDOW + 1)
    injector = FaultInjector(controller, rng=rng)
    inject(injector)
    report = next(iter(systems.values())).check()
    reports = {
        name: system.localize(scope=scope, report=report, correlate=False)
        for name, system in systems.items()
    }
    return injector, reports


def mean_and_stdev(values: Iterable[float]) -> Tuple[float, float]:
    """Mean and (population-0-safe) standard deviation of a sample."""
    data = list(values)
    if not data:
        return 0.0, 0.0
    if len(data) == 1:
        return data[0], 0.0
    return statistics.fmean(data), statistics.stdev(data)
