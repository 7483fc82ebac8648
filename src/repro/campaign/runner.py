"""Execute campaign cells end-to-end and aggregate their results.

Each cell is run hermetically: a fresh workload is generated from the cell's
profile and seed, deployed through a fresh controller, faulted according to
the cell's fault class, checked — by a fresh system (``serial``) or by one
whose held checker audited the deployment before the fault (``incremental``)
— and localized with SCOUT — the figures' trial,
:func:`~repro.experiments.common.run_trial` — and the hypothesis is scored
against the injector's ground truth.  Everything observable about a cell — the
equivalence-report fingerprint, the injected events, the localization output
and the accuracy metrics — is a pure function of the cell, which is what the
trace recorder and the CI regression gate rely on.  Wall-clock timings are
carried alongside but never participate in identity comparisons.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Optional, Sequence, Set, Tuple

from ..churn.driver import ChurnDriver
from ..controller.controller import Controller
from ..core.metrics import accuracy
from ..core.system import ScoutReport, ScoutSystem
from ..experiments.common import CHANGE_WINDOW, run_trial
from ..faults.base import FaultKind
from ..faults.injector import FaultInjector
from ..obs import correlated, span
from ..verify.checker import EquivalenceReport
from ..workloads.generator import generate_workload
from ..workloads.profiles import resolve_profile
from ..workloads.scenarios import deploy_profile, large_unresponsive_switch_scenario
from .spec import OBJECT_FAULT_CLASSES, CampaignCell, CampaignSpec

__all__ = [
    "CampaignReport",
    "CellResult",
    "run_campaign",
    "run_cell",
]


@dataclass
class CellResult:
    """Everything one executed cell produced.

    ``identity()`` is the deterministic subset that record/replay and the CI
    gate compare; ``duration_seconds`` rides along for reporting only.
    """

    cell: CampaignCell
    fingerprint: str
    consistent: bool
    missing_rules: int
    ground_truth: List[str] = field(default_factory=list)
    hypothesis: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    events: List[Dict] = field(default_factory=list)
    duration_seconds: float = 0.0

    @property
    def cell_id(self) -> str:
        return self.cell.cell_id

    def identity(self) -> Dict:
        """The replay-comparable payload (no wall-clock, no machine state)."""
        return {
            "fingerprint": self.fingerprint,
            "consistent": self.consistent,
            "missing_rules": self.missing_rules,
            "ground_truth": list(self.ground_truth),
            "hypothesis": list(self.hypothesis),
            "metrics": dict(self.metrics),
        }

    def to_dict(self) -> Dict:
        return {
            "cell_id": self.cell_id,
            "cell": self.cell.to_dict(),
            "events": [dict(event) for event in self.events],
            "result": self.identity(),
            "duration_seconds": self.duration_seconds,
        }


@dataclass
class CampaignReport:
    """All cell results of one campaign run, in canonical grid order."""

    spec: CampaignSpec
    results: List[CellResult] = field(default_factory=list)
    duration_seconds: float = 0.0

    def fingerprint_chain(self) -> str:
        """SHA-256 chained over every cell's id + equivalence fingerprint.

        One digest that changes iff any cell's verdict changes — the single
        value the CI regression gate compares against the recorded trace.
        """
        digest = hashlib.sha256()
        for result in self.results:
            digest.update(f"{result.cell_id}\n{result.fingerprint}\n".encode("utf-8"))
        return digest.hexdigest()

    def summary(self) -> Dict:
        cells = len(self.results)
        scored = [result for result in self.results if result.metrics]
        return {
            "name": self.spec.name,
            "cells": cells,
            "consistent_cells": sum(1 for result in self.results if result.consistent),
            "total_missing_rules": sum(result.missing_rules for result in self.results),
            "mean_precision": (
                sum(result.metrics["precision"] for result in scored) / len(scored)
                if scored
                else 0.0
            ),
            "mean_recall": (
                sum(result.metrics["recall"] for result in scored) / len(scored)
                if scored
                else 0.0
            ),
            "fingerprint_chain": self.fingerprint_chain(),
        }

    def to_dict(self) -> Dict:
        return {
            "spec": self.spec.to_dict(),
            "summary": self.summary(),
            "cells": [result.to_dict() for result in self.results],
            "duration_seconds": self.duration_seconds,
        }


# --------------------------------------------------------------------- #
# Deployment per fault class
# --------------------------------------------------------------------- #
def _deploy_unresponsive_switch(
    cell: CampaignCell,
) -> Tuple[Controller, List[Dict], Set[str]]:
    """§V-B: silence the busiest leaf before the first push, then deploy."""
    scenario = large_unresponsive_switch_scenario(
        resolve_profile(cell.profile, seed=cell.seed), seed=cell.seed
    )
    victim = scenario.facts["unresponsive_switch"]
    events = [{"event": "unresponsive-switch", "switch": victim}]
    return scenario.controller, events, {victim}


def _deploy_tcam_overflow(
    cell: CampaignCell,
) -> Tuple[Controller, List[Dict], Set[str]]:
    """§V-B: redeploy the workload onto TCAMs sized below peak occupancy.

    The unconstrained deployment is probed first to find the peak per-leaf
    rule count; the campaign workload is then regenerated from the same seed
    with ``capacity_fraction`` of that peak, so the most-loaded leaves
    reject installs and raise ``TCAM_OVERFLOW`` faults.
    """
    probe = deploy_profile(cell.profile, seed=cell.seed).fabric
    peak = max(len(probe.switch(uid).deployed_rules()) for uid in probe.leaf_uids())
    capacity = max(1, int(peak * cell.fault.capacity_fraction))

    profile = resolve_profile(cell.profile, seed=cell.seed)
    workload = generate_workload(profile, tcam_capacity=capacity)
    controller = Controller(workload.policy, workload.fabric)
    controller.deploy()
    overflowed = sorted(
        uid
        for uid, switch in workload.fabric.switches.items()
        if switch.tcam.rejected_installs > 0
    )
    events: List[Dict] = [
        {"event": "tcam-capacity", "capacity": capacity, "peak_rules": peak},
    ]
    for uid in overflowed:
        events.append(
            {
                "event": "tcam-overflow",
                "switch": uid,
                "rejected": workload.fabric.switch(uid).tcam.rejected_installs,
            }
        )
    return controller, events, set(overflowed)


# --------------------------------------------------------------------- #
# Cell execution
# --------------------------------------------------------------------- #
#: What running a cell yields for :func:`run_cell` to score: the verdict,
#: SCOUT's report, the ground truth and the recorded events.
CellRun = Tuple[EquivalenceReport, ScoutReport, Collection[str], List[Dict]]


def _run_fault_cell(cell: CampaignCell) -> CellRun:
    """One non-churn cell: deploy per fault class, then one trial.

    Object-fault classes inject the cell's faults with the cell-seeded RNG;
    the §V-B classes fault the deployment itself and inject nothing, but are
    checked and localized the same way.
    """
    with span("campaign.deploy"):
        if cell.fault.kind == "unresponsive-switch":
            controller, events, ground_truth = _deploy_unresponsive_switch(cell)
        elif cell.fault.kind == "tcam-overflow":
            controller, events, ground_truth = _deploy_tcam_overflow(cell)
        else:
            controller = deploy_profile(cell.profile, seed=cell.seed)
            events, ground_truth = [], set()

    def inject(injector: FaultInjector) -> None:
        if cell.fault.kind in OBJECT_FAULT_CLASSES:
            kinds = tuple(FaultKind(name) for name in cell.fault.fault_kinds)
            injector.inject_random_faults(
                cell.fault.count, kinds=kinds, strict=False, seed=cell.seed
            )

    system = ScoutSystem(controller, change_window=CHANGE_WINDOW)
    if cell.engine == "incremental":
        # A held checker: the trial's check refreshes this baseline.
        system.check()
    with span("campaign.trial", kind=cell.fault.kind, engine=cell.engine):
        injector, reports = run_trial(controller, {"SCOUT": system}, inject, cell.scope)
    scout = reports["SCOUT"]
    if cell.fault.kind in OBJECT_FAULT_CLASSES:
        ground_truth = injector.ground_truth()
        events = [
            {
                "event": "object-fault",
                "object": fault.object_uid,
                "kind": fault.kind.value,
                "injected_at": fault.injected_at,
                "removed": {
                    uid: len(fault.removed_rules[uid])
                    for uid in sorted(fault.removed_rules)
                },
            }
            for fault in injector.injected
        ]
    return scout.equivalence, scout, ground_truth, events


def _run_churn_cell(cell: CampaignCell) -> CellRun:
    """One ``churn`` cell: drive a seeded stream, then check + localize.

    The stream length is the fault spec's ``count``; workload and stream both
    derive from the cell's seed, so the whole run — every churn event record
    and every checkpoint fingerprint — is replay-comparable.  The cell's
    ``fingerprint`` is the *canonical* (engine-agnostic) form, because churn
    cells exist to compare engines against each other: a serial sweep and
    the monitor's incremental state must agree on the network's final
    verdict.  The driver runs strict, so a differential
    divergence fails the cell loudly rather than recording bad behavior.
    """
    with span("campaign.deploy"):
        driver = ChurnDriver.for_workload(
            cell.profile,
            events=cell.fault.count,
            seed=cell.seed,
            change_window=CHANGE_WINDOW,
            fault_kinds=cell.fault.fault_kinds,
        )
    with span("campaign.inject"):
        churn_report = driver.run()

    # The driver's own system is also the cell's final sweep (it already
    # carries the campaign's SCOUT window).
    system = driver.system
    with span("campaign.check", engine=cell.engine):
        if cell.engine == "incremental":
            report = driver.monitor.report()
        else:
            report = system.check()
        canonical = report.canonical()
    with span("campaign.localize"):
        scout: ScoutReport = system.localize(scope=cell.scope, report=report)

    events = list(churn_report.records)
    events.append(
        {
            "event": "churn-summary",
            "applied": churn_report.events_applied,
            "skipped": churn_report.skipped,
            "counts": {
                kind: churn_report.counts[kind] for kind in sorted(churn_report.counts)
            },
            "checkpoints": len(churn_report.checkpoints),
            "divergences": churn_report.divergence_count,
        }
    )
    ground_truth = driver.effective_ground_truth(report=canonical)
    return canonical, scout, ground_truth, events


def run_cell(cell: CampaignCell) -> CellResult:
    """Run one cell hermetically and return its :class:`CellResult`."""
    start = time.perf_counter()
    run = _run_churn_cell if cell.fault.kind == "churn" else _run_fault_cell
    with correlated(prefix="cell"), span("campaign.cell", cell=cell.cell_id):
        report, scout, ground_truth, events = run(cell)
        with span("campaign.score"):
            result = accuracy(ground_truth, scout.hypothesis.objects())
    return CellResult(
        cell=cell,
        fingerprint=report.fingerprint(),
        consistent=report.equivalent,
        missing_rules=report.total_missing(),
        ground_truth=sorted(str(uid) for uid in ground_truth),
        hypothesis=sorted(str(risk) for risk in scout.hypothesis.objects()),
        metrics={
            "precision": result.precision,
            "recall": result.recall,
            "f1": result.f1,
        },
        events=events,
        duration_seconds=time.perf_counter() - start,
    )


def run_campaign(
    spec: CampaignSpec,
    progress: Optional[Callable[[CellResult], None]] = None,
    cells: Optional[Sequence[CampaignCell]] = None,
) -> CampaignReport:
    """Run every cell of ``spec`` (or an explicit ``cells`` subset) in order."""
    start = time.perf_counter()
    report = CampaignReport(spec=spec)
    for cell in spec.cells() if cells is None else list(cells):
        result = run_cell(cell)
        report.results.append(result)
        if progress is not None:
            progress(result)
    report.duration_seconds = time.perf_counter() - start
    return report
