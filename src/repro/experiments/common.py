"""Shared infrastructure for the evaluation experiments.

The accuracy and suspect-set experiments all follow the same loop:

1. generate a workload and deploy it once;
2. snapshot the deployed TCAM state;
3. for every trial: restore the snapshot, inject object faults, run the L-T
   check, build + augment the risk model, run the localizers, score them
   against the injected ground truth;
4. aggregate across trials.

Deploying once and restoring TCAM snapshots (instead of redeploying) keeps a
30-run × 10-fault-count sweep tractable without changing any semantics: the
restored state is byte-identical to a fresh deployment.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..controller.controller import Controller
from ..core.score import ScoreLocalizer
from ..core.scout import RecentChangeOracle, ScoutLocalizer
from ..policy.graph import PolicyIndex
from ..rules import TcamRule
from ..workloads.generator import GeneratedWorkload, generate_workload
from ..workloads.profiles import WorkloadProfile

__all__ = [
    "DeployedWorkload",
    "TcamSnapshot",
    "prepare_workload",
    "snapshot_tcam",
    "restore_tcam",
    "make_localizers",
    "mean_and_stdev",
]

#: Per-switch snapshot of installed rules keyed by match key.
TcamSnapshot = Dict[str, Dict[tuple, TcamRule]]


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


def prepare_workload(
    profile: WorkloadProfile,
    seed: Optional[int] = None,
    tcam_capacity: Optional[int] = None,
) -> DeployedWorkload:
    """Generate, attach and deploy a workload; snapshot the resulting TCAM state."""
    workload = generate_workload(profile, seed=seed, tcam_capacity=tcam_capacity)
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
    """Reinstate a previously captured TCAM snapshot on every leaf."""
    for uid, entries in snapshot.items():
        switch = fabric.switch(uid)
        switch.tcam.clear()
        for rule in entries.values():
            switch.tcam.install(rule)


def make_localizers(
    controller: Controller,
    score_thresholds: Sequence[float] = (1.0, 0.6),
    change_window: int = 50,
) -> Dict[str, object]:
    """The localizer line-up used by the accuracy figures: SCOUT vs SCORE-X."""
    localizers: Dict[str, object] = {
        "SCOUT": ScoutLocalizer(
            change_oracle=RecentChangeOracle(
                change_log=controller.change_log,
                window=change_window,
                fallback_latest=False,
            )
        )
    }
    for threshold in score_thresholds:
        localizer = ScoreLocalizer(hit_threshold=threshold)
        localizers[localizer.name] = localizer
    return localizers


def mean_and_stdev(values: Iterable[float]) -> Tuple[float, float]:
    """Mean and (population-0-safe) standard deviation of a sample."""
    data = list(values)
    if not data:
        return 0.0, 0.0
    if len(data) == 1:
        return data[0], 0.0
    return statistics.fmean(data), statistics.stdev(data)
