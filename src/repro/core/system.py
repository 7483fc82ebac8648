"""The end-to-end SCOUT system (§V, Figure 6).

``ScoutSystem`` wires the pieces together exactly as the paper's architecture
diagram shows:

1. the **L-T equivalence checker** compares the logical rules compiled from
   the controller's policy against the TCAM rules collected from the fabric
   and emits missing rules;
2. the **fault localization engine** builds the switch and/or controller
   risk models, augments them with the missing rules and runs the SCOUT
   algorithm to produce a hypothesis of faulty policy objects;
3. the **event correlation engine** combines the hypothesis with the
   controller change logs and the device fault logs to output the most
   likely physical-level root causes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Literal, Optional, Sequence, Set

from ..controller.compiler import CompiledRules
from ..controller.controller import Controller
from ..obs import TraceCollector, activated, span
from ..parallel.engine import plan_for_report
from ..parallel.executor import SMALL_FABRIC_SWITCHES
from ..parallel.pool import WarmWorkerPool
from ..parallel.shards import clamp_workers
from ..risk.augment import (
    augment_controller_model,
    augment_controller_model_sharded,
    augment_switch_model,
)
from ..risk.controller_model import build_controller_risk_model
from ..risk.model import RiskModel
from ..risk.switch_model import build_switch_risk_model
from ..rules import TcamRule
from ..verify.checker import EquivalenceChecker, EquivalenceReport
from .correlation import CorrelationReport, EventCorrelationEngine
from .hypothesis import Hypothesis
from .metrics import suspect_set_reduction
from .scout import RecentChangeOracle, ScoutLocalizer

__all__ = ["ScoutReport", "ScoutSystem"]

Scope = Literal["controller", "switch"]


@dataclass
class ScoutReport:
    """Everything one end-to-end SCOUT run produced."""

    scope: Scope
    equivalence: EquivalenceReport
    hypothesis: Hypothesis
    per_switch: Dict[str, Hypothesis] = field(default_factory=dict)
    risk_models: Dict[str, RiskModel] = field(default_factory=dict)
    correlation: Optional[CorrelationReport] = None

    @property
    def consistent(self) -> bool:
        """True when the deployed state matches the policy everywhere."""
        return self.equivalence.equivalent

    def faulty_objects(self) -> Set[Hashable]:
        return self.hypothesis.objects()

    def suspect_reduction(self) -> float:
        """Mean suspect-set-reduction γ across the augmented risk models."""
        gammas = [
            suspect_set_reduction(model, self.hypothesis.objects())
            for model in self.risk_models.values()
            if model.failure_signature()
        ]
        if not gammas:
            return 0.0
        return sum(gammas) / len(gammas)

    def to_dict(self) -> Dict:
        """JSON-ready form of everything an operator-facing surface consumes.

        Risk models stay behind (they are graph-sized internals rebuilt from
        live state on demand) and correlation findings are flattened to their
        operator-facing facts; everything else — the equivalence report with
        full rule provenance, the hypothesis with its selection order — is
        carried verbatim so :meth:`from_dict` can round-trip it.
        """
        correlation = None
        if self.correlation is not None:
            correlation = {
                "findings": [
                    {
                        "object_uid": str(finding.object_uid),
                        "root_cause": finding.root_cause,
                        "known": finding.is_known,
                        "devices": sorted(
                            {fault.device_uid for fault in finding.matched_faults}
                        ),
                    }
                    for finding in self.correlation.findings
                ]
            }
        return {
            "scope": self.scope,
            "consistent": self.consistent,
            "equivalence": self.equivalence.to_dict(),
            "hypothesis": self.hypothesis.to_dict(),
            "per_switch": {
                uid: self.per_switch[uid].to_dict() for uid in sorted(self.per_switch)
            },
            "correlation": correlation,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ScoutReport":
        """Rebuild a report from its wire form.

        Risk models and fault-signature matchers (callables over live graph
        state) are rebuilt on demand rather than shipped over the wire, so
        the result has empty ``risk_models`` and no ``correlation`` object —
        the flattened findings stay available in the original payload.
        """
        return cls(
            scope=data["scope"],
            equivalence=EquivalenceReport.from_dict(data["equivalence"]),
            hypothesis=Hypothesis.from_dict(data["hypothesis"]),
            per_switch={
                uid: Hypothesis.from_dict(entry)
                for uid, entry in data.get("per_switch", {}).items()
            },
        )

    def describe(self) -> str:
        lines = [
            f"SCOUT report ({self.scope} scope)",
            f"  missing rules: {self.equivalence.total_missing()} "
            f"across {len(self.equivalence.switches_with_violations())} switch(es)",
            self.hypothesis.describe(),
        ]
        if self.correlation is not None and self.correlation.findings:
            lines.append(self.correlation.describe())
        return "\n".join(lines)


class ScoutSystem:
    """End-to-end pipeline: equivalence check → localization → correlation."""

    def __init__(
        self,
        controller: Controller,
        localizer: Optional[ScoutLocalizer] = None,
        change_window: int = 100,
        include_switch_risks: bool = True,
    ) -> None:
        self.controller = controller
        self.checker = EquivalenceChecker()
        self.change_window = change_window
        self.include_switch_risks = include_switch_risks
        self.localizer = localizer or ScoutLocalizer(
            change_oracle=RecentChangeOracle(
                change_log=controller.change_log, window=change_window
            )
        )
        self.correlation_engine = EventCorrelationEngine()
        #: Lazily created persistent worker pool for parallel sweeps.
        self.pool: Optional[WarmWorkerPool] = None
        #: Derived checkers for per-call ``engine=`` overrides, cached so a
        #: repeated override (a ``bdd`` cross-check audit) reuses its state.
        self._engine_checkers: Dict[str, EquivalenceChecker] = {}
        #: Risk models :meth:`localize` asked for whose structure had to be
        #: computed from the index / was already held by it.
        self.risk_structures_built = 0
        self.risk_structures_reused = 0

    def _checker_for(self, engine: Optional[str]) -> EquivalenceChecker:
        """The system checker, or a derived one pinned to ``engine``.

        Derived checkers share the base checker's rule space and atom table
        (atomic predicates refine monotonically, so sharing is always
        sound), differing only in engine.
        """
        if engine is None or engine == self.checker.engine:
            return self.checker
        derived = self._engine_checkers.get(engine)
        if derived is None:
            derived = EquivalenceChecker(
                rule_space=self.checker.rule_space,
                engine=engine,
                atoms=self.checker.atoms,
            )
            self._engine_checkers[engine] = derived
        return derived

    # ------------------------------------------------------------------ #
    # Worker-pool lifecycle
    # ------------------------------------------------------------------ #
    def worker_pool(self, max_workers: Optional[int] = None) -> WarmWorkerPool:
        """The system's persistent warm-worker pool, created on first use.

        The first call sizes the pool; later calls reuse it as-is (the
        shard plan still honours each call's ``max_workers``, so a smaller
        round simply leaves workers idle).  Workers keep their memoized
        compiled state across rounds until :meth:`close`.
        """
        if self.pool is None or self.pool.closed:
            self.pool = WarmWorkerPool(max_workers=max_workers)
        return self.pool

    def close(self) -> None:
        """Release the worker pool — and its warm caches — if one exists."""
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def __enter__(self) -> "ScoutSystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Fast-path accounting
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """How much of this system's audit work was answered without redoing it.

        The controller's compiled-policy counters
        (:meth:`Controller.compile_stats`) plus, summed over this system's
        checkers, how parallel sweeps split between key-set identity proofs
        and switches dispatched to an engine, plus how many of the risk
        models :meth:`localize` built found their structure on the index
        (``risk_structures_reused``) or had to compute it (``…_built``).
        """
        checkers = [self.checker, *self._engine_checkers.values()]
        return {
            **self.controller.compile_stats(),
            "identity_proofs": sum(checker.identity_proofs for checker in checkers),
            "dispatched": sum(checker.dispatched for checker in checkers),
            "risk_structures_built": self.risk_structures_built,
            "risk_structures_reused": self.risk_structures_reused,
        }

    # ------------------------------------------------------------------ #
    # Step 1: L-T equivalence check
    # ------------------------------------------------------------------ #
    def check(
        self,
        compiled: Optional[CompiledRules] = None,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        trace: Optional[TraceCollector] = None,
        engine: Optional[str] = None,
    ) -> EquivalenceReport:
        """Compare desired (L) and deployed (T) rules across the fabric.

        ``engine`` overrides the system checker's engine for this sweep only
        (any :data:`~repro.verify.checker.ENGINES` value — in practice the
        ``"bdd"`` oracle cross-check); the derived checker shares the base
        checker's atom table.

        With ``parallel=True`` the per-switch checks run through the
        sharded engine — the system's persistent
        :class:`~repro.parallel.pool.WarmWorkerPool` of ``max_workers`` on
        large fabrics (workers and their memo caches survive across calls
        until :meth:`close`), inline in this process on small ones.  Leaves
        whose logical and deployed key sets are equal are settled before
        either (see :func:`repro.parallel.engine.check_switches`), so a
        healthy fabric spawns no worker at all.  The report is identical
        either way; only the wall-clock differs.

        ``trace`` activates the given :class:`~repro.obs.TraceCollector`
        for the duration of the sweep; the collector is also attached to
        the returned report as ``report.trace``.

        ``compiled`` is the controller's compile to check the fabric
        against, when the caller has read it already (:meth:`localize`,
        whose risk model must describe the same policy); by default the
        sweep reads it.
        """
        checker = self._checker_for(engine)
        scope = activated(trace) if trace is not None else contextlib.nullcontext()
        with scope:
            with self.controller._compile_span("check.compile_logical"):
                if compiled is None:
                    compiled = self.controller._compiled_rules()
                logical = compiled.by_switch
            with span("check.collect_deployed"):
                deployed = self.controller.collect_deployed_rules()
            if parallel:
                switches = [
                    (uid, logical.get(uid, ()), deployed.get(uid, ()))
                    for uid in sorted(set(logical) | set(deployed))
                ]
                executor = None
                if len(switches) >= SMALL_FABRIC_SWITCHES:
                    # Large fabrics go through the persistent pool so the
                    # workers' memo caches survive into the next round;
                    # small ones run inline (no processes to keep warm).
                    executor = self.worker_pool(max_workers)
                report = checker.check_many(
                    switches, executor=executor, max_workers=max_workers
                )
            else:
                with span("check.network", switches=len(set(logical) | set(deployed))):
                    report = checker.check_network(logical, deployed)
        if trace is not None:
            report.trace = trace
        return report

    # ------------------------------------------------------------------ #
    # Step 2: fault localization
    # ------------------------------------------------------------------ #
    def localize(
        self,
        scope: Scope = "controller",
        report: Optional[EquivalenceReport] = None,
        correlate: bool = True,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        trace: Optional[TraceCollector] = None,
        engine: Optional[str] = None,
    ) -> ScoutReport:
        """Run the full pipeline and return a :class:`ScoutReport`.

        ``engine`` overrides the checker engine for this run's equivalence
        sweep (see :meth:`check`); localization and correlation consume the
        resulting report unchanged, so the hypothesis is engine-invariant.

        ``parallel=True`` shards the equivalence sweep across
        ``max_workers`` processes and applies the risk-model augmentation
        shard batch by shard batch (along a plan derived from the report):
        SCOUT itself consumes the merged observations
        unchanged, so the hypothesis is identical to a serial run.

        ``trace`` activates the collector for the whole pipeline; it is
        attached to the returned report as ``report.trace``.
        """
        scope_cm = activated(trace) if trace is not None else contextlib.nullcontext()
        with scope_cm:
            with self.controller._compile_span("scout.build_index"):
                # L and the risk models' index from one read of the live
                # policy: an edit landing mid-run is the next run's, not
                # half of this one's.
                compiled = self.controller._compiled_rules() if report is None else None
                index = self.controller.build_index() if compiled is None else compiled.index
            equivalence = report or self.check(
                compiled=compiled, parallel=parallel, max_workers=max_workers, engine=engine
            )
            shard_plan = None
            if parallel:
                shard_plan = plan_for_report(
                    equivalence,
                    clamp_workers(max_workers, total_items=len(equivalence.results)),
                )
            missing_by_switch = equivalence.missing_rules()

            risk_models: Dict[str, RiskModel] = {}
            per_switch: Dict[str, Hypothesis] = {}

            with span("scout.risk_model", scope=scope) as risk_span:
                risk_span.count("missing_rules", sum(map(len, missing_by_switch.values())))
                if scope == "switch":
                    merged = Hypothesis(algorithm=self.localizer.name)
                    for switch_uid, missing in sorted(missing_by_switch.items()):
                        model = build_switch_risk_model(index, switch_uid)
                        risk_span.count("edges_flipped", augment_switch_model(model, missing))
                        risk_models[switch_uid] = model
                        with span("scout.localize", switch=switch_uid):
                            hypothesis = self.localizer.localize(model)
                        per_switch[switch_uid] = hypothesis
                        merged = merged.merge(hypothesis)
                    hypothesis = merged
                else:
                    model = build_controller_risk_model(
                        self.controller.policy,
                        index=index,
                        include_switch_risks=self.include_switch_risks,
                    )
                    if shard_plan is not None:
                        flipped = sum(
                            augment_controller_model_sharded(
                                model,
                                missing_by_switch,
                                shard_plan,
                                include_switch_risks=self.include_switch_risks,
                            ).values()
                        )
                    else:
                        flipped = augment_controller_model(
                            model,
                            missing_by_switch,
                            include_switch_risks=self.include_switch_risks,
                        )
                    risk_span.count("edges_flipped", flipped)
                    risk_models["controller"] = model
                    risk_span.count("observations", len(missing_by_switch))
                    with span("scout.localize", scope=scope):
                        hypothesis = self.localizer.localize(model)
                if risk_models:
                    reused = sum(model.structure_reused for model in risk_models.values())
                    self.risk_structures_reused += reused
                    self.risk_structures_built += len(risk_models) - reused
                    risk_span.set(
                        "structure", "reused" if reused == len(risk_models) else "built"
                    )

            correlation = None
            if correlate and hypothesis.objects():
                with span("scout.correlate"):
                    correlation = self._correlate(hypothesis, missing_by_switch)

        scout_report = ScoutReport(
            scope=scope,
            equivalence=equivalence,
            hypothesis=hypothesis,
            per_switch=per_switch,
            risk_models=risk_models,
            correlation=correlation,
        )
        if trace is not None:
            scout_report.trace = trace
        return scout_report

    # ------------------------------------------------------------------ #
    # Step 3: event correlation
    # ------------------------------------------------------------------ #
    def _correlate(
        self,
        hypothesis: Hypothesis,
        missing_by_switch: Dict[str, Sequence[TcamRule]],
    ) -> CorrelationReport:
        """Map each faulty object to the devices its missing rules touched."""
        relevant_devices: Dict[Hashable, List[str]] = {}
        for switch_uid, missing in missing_by_switch.items():
            for rule in missing:
                for uid in rule.objects():
                    relevant_devices.setdefault(uid, [])
                    if switch_uid not in relevant_devices[uid]:
                        relevant_devices[uid].append(switch_uid)
        # A switch selected as a faulty risk is its own relevant device.
        for risk in hypothesis.objects():
            if isinstance(risk, str) and risk in self.controller.fabric:
                relevant_devices.setdefault(risk, [risk])

        fault_records = self.controller.all_fault_records()
        return self.correlation_engine.correlate(
            hypothesis,
            self.controller.change_log,
            fault_records,
            relevant_devices=relevant_devices,
        )
