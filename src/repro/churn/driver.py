"""The churn driver: apply a churn stream to a live fabric, oracle included.

:class:`ChurnDriver` is the piece that turns the seeded event stream into
actual control-plane traffic.  It owns one deployed controller/fabric pair
with a :class:`~repro.online.monitor.NetworkMonitor` attached, so every
management action it performs flows through the *same* path production
changes would: the controller change log and the fabric hooks publish typed
events onto the bus, the monitor debounces them, and the incremental checker
re-checks the blast radius against the controller's compiled policy — the
driver never touches the incremental engine directly.  Pushes take that path
too: every batch goes out through :meth:`Controller.push
<repro.controller.controller.Controller.push>`, which books unreachable and
partial deliveries in the controller fault log exactly as a deployment's,
and where a push lands is read from the controller's index.

Policy churn is pushed *incrementally*: a new tenant rule delivers only the
five objects involved (VRF, filter, contract, both EPGs) to the switches
hosting either EPG, a removal delivers the rewired EPGs plus delete
instructions, and only topology churn (flap recovery, reboot, drain
restore) re-pushes a switch's full batch.  That keeps a 1k-event soak on
the simulation profile in CI territory and mirrors how a real controller
reconciles.

At every :class:`~repro.churn.events.Checkpoint` the driver runs the
**differential oracle**:

* the monitor's incrementally maintained report and a full check against
  the from-scratch ``compile_logical_rules(policy)`` — never the compiled
  policy the monitor itself reads — must be fingerprint-identical under
  :meth:`~repro.verify.checker.EquivalenceReport.canonical` (engine labels
  and rule-list order are normalized away; verdicts, counts and rule sets
  with full provenance are not);
* the set of switches with open incidents must equal the set of switches
  the full check finds violating — no incident lost, none leaked.

With ``strict=True`` (the default) a divergence raises
:class:`~repro.exceptions.ChurnDivergenceError` on the spot; the soak
suites and the campaign ``churn`` cells both run strict.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..controller.compiler import (
    SwitchBatch,
    build_instruction_batch_for_switch,
    compile_logical_rules,
)
from ..controller.controller import Controller
from ..core.system import ScoutSystem
from ..exceptions import ChurnDivergenceError, ChurnError
from ..fabric.faultlog import FaultCode
from ..faults.base import FaultKind
from ..faults.injector import FaultInjector
from ..faults.physical import make_switch_unresponsive, restore_switch
from ..obs import correlated, current_corr_id, dump_flightrecord, span
from ..online.monitor import NetworkMonitor
from ..policy.graph import PolicyIndex
from ..policy.objects import Contract, Epg, Filter, FilterEntry
from ..protocol import Instruction, Operation
from ..verify.checker import EquivalenceReport
from ..workloads.churn_profiles import ChurnProfile, churn_profile_for
from ..workloads.scenarios import deploy_profile
from .events import (
    Checkpoint,
    ChurnEvent,
    FaultBurst,
    LinkFlap,
    PolicyAdd,
    PolicyModify,
    PolicyRemove,
    SwitchDrain,
    SwitchReboot,
)
from .stream import generate_churn_stream

__all__ = ["CheckpointRecord", "ChurnReport", "ChurnRule", "ChurnDriver"]

#: Ports drawn for churn-minted filter entries (mirrors the generator's mix).
_COMMON_PORTS = [80, 443, 22, 53, 3306, 5432, 8080, 8443, 6379, 9092]


@dataclass(frozen=True)
class ChurnRule:
    """One churn-created tenant rule: the handles a later remove/modify needs."""

    rule_id: int
    contract_uid: str
    filter_uid: str
    consumer_uid: str
    provider_uid: str
    vrf_uid: str
    switches: Tuple[str, ...]


@dataclass
class CheckpointRecord:
    """One differential-oracle pass."""

    seq: int
    incremental_fingerprint: str
    full_fingerprint: str
    violating_switches: List[str] = field(default_factory=list)
    incident_switches: List[str] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return self.incremental_fingerprint != self.full_fingerprint

    @property
    def incidents_consistent(self) -> bool:
        return self.violating_switches == self.incident_switches

    @property
    def ok(self) -> bool:
        return not self.diverged and self.incidents_consistent

    def to_dict(self) -> Dict:
        return {
            "event": "checkpoint",
            "seq": self.seq,
            "fingerprint": self.full_fingerprint,
            "diverged": self.diverged,
            "violating_switches": list(self.violating_switches),
            "incident_switches": list(self.incident_switches),
        }


@dataclass
class ChurnReport:
    """Everything one churn run produced.

    ``identity()`` is the deterministic subset (no wall-clock): the campaign
    trace recorder and the property tests compare it field by field.
    """

    profile: ChurnProfile
    records: List[Dict] = field(default_factory=list)
    checkpoints: List[CheckpointRecord] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    skipped: int = 0
    final_fingerprint: str = ""
    ground_truth: List[str] = field(default_factory=list)
    incidents_opened: int = 0
    incidents_resolved: int = 0
    monitor_stats: Dict[str, int] = field(default_factory=dict)
    duration_seconds: float = 0.0

    @property
    def events_applied(self) -> int:
        return sum(self.counts.values())

    @property
    def divergence_count(self) -> int:
        return sum(1 for checkpoint in self.checkpoints if not checkpoint.ok)

    def identity(self) -> Dict:
        return {
            "profile": self.profile.to_dict(),
            "records": list(self.records),
            "counts": dict(self.counts),
            "skipped": self.skipped,
            "final_fingerprint": self.final_fingerprint,
            "ground_truth": list(self.ground_truth),
            "divergence_count": self.divergence_count,
        }

    def to_dict(self) -> Dict:
        return {
            **self.identity(),
            "events_applied": self.events_applied,
            "checkpoints": [checkpoint.to_dict() for checkpoint in self.checkpoints],
            "incidents_opened": self.incidents_opened,
            "incidents_resolved": self.incidents_resolved,
            "monitor_stats": dict(self.monitor_stats),
            "duration_seconds": self.duration_seconds,
        }

    def describe(self) -> str:
        ok = "ok" if self.divergence_count == 0 else "DIVERGED"
        return (
            f"churn {self.profile.name}: {self.events_applied} event(s) applied "
            f"({self.skipped} skipped), {len(self.checkpoints)} checkpoint(s) {ok}, "
            f"{self.incidents_opened} incident(s) opened / "
            f"{self.incidents_resolved} resolved"
        )


class ChurnDriver:
    """Apply churn events to one deployed controller while a monitor watches."""

    def __init__(
        self,
        controller: Controller,
        profile: ChurnProfile,
        monitor: Optional[NetworkMonitor] = None,
        strict: bool = True,
        change_window: int = 100,
        fault_kinds: Tuple[str, ...] = ("full", "partial"),
    ) -> None:
        self.controller = controller
        self.profile = profile
        self.clock = controller.clock
        self.strict = strict
        self.monitor = monitor or NetworkMonitor(
            controller, debounce_ticks=1, change_window=change_window
        )
        if not self.monitor.running:
            self.monitor.start()
        #: Fresh-check side of the differential oracle: its checker (the L it
        #: checks is compiled from scratch, see :meth:`_full_check`).
        self.system = ScoutSystem(controller, change_window=change_window)
        self.injector = FaultInjector(controller)
        #: Full/partial draw for FaultBurst events (campaign cells pass the
        #: spec's ``fault_kinds`` knob through; names validated eagerly).
        self.fault_kinds = tuple(FaultKind(name) for name in fault_kinds)
        self._rules: Dict[int, ChurnRule] = {}
        #: Non-checkpoint events applied so far.  Drain lifetimes count these
        #: — never stream seq numbers, which checkpoints also consume, so the
        #: observation-only checkpoint cadence cannot shorten a drain.
        self._events_seen = 0
        #: switch uid -> last _events_seen value the drain covers.
        self._drained: Dict[str, int] = {}
        self._last_checkpoint: Optional[CheckpointRecord] = None
        self._last_full_report: Optional[EquivalenceReport] = None

    def close(self) -> None:
        """Release the oracle system's worker pool, if a caller's parallel
        sweep over :attr:`system` made one (the monitor stays attached)."""
        self.system.close()

    def __enter__(self) -> "ChurnDriver":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def for_workload(
        cls,
        workload: str,
        events: Optional[int] = None,
        seed: Optional[int] = None,
        checkpoint_interval: Optional[int] = None,
        strict: bool = True,
        change_window: int = 100,
        fault_kinds: Tuple[str, ...] = ("full", "partial"),
    ) -> "ChurnDriver":
        """Generate + deploy ``workload`` and wrap it in a churn driver.

        ``seed`` seeds both the workload generation and the churn stream, so
        one integer reproduces the whole run — the contract the campaign's
        ``churn`` cells and ``POST /churn`` rely on.
        """
        churn = churn_profile_for(
            workload, events=events, seed=seed, checkpoint_interval=checkpoint_interval
        )
        controller = deploy_profile(workload, seed=seed)
        # Age the initial-deployment change records out of SCOUT's recency
        # window (the campaign runner does the same before injecting): stage
        # 2 should weigh churn-era management actions, not the big bang.
        controller.clock.tick(change_window + 1)
        return cls(
            controller,
            churn,
            strict=strict,
            change_window=change_window,
            fault_kinds=fault_kinds,
        )

    # ------------------------------------------------------------------ #
    # Pushes (the controller's one push routine books their outcome)
    # ------------------------------------------------------------------ #
    def _push(self, batches: Dict[str, SwitchBatch]) -> None:
        self.controller.push(batches, "churn", "churn instruction(s)")

    def _push_objects(
        self, objs: Sequence[Tuple[Operation, object]], switches: Sequence[str]
    ) -> None:
        """Deliver a small object batch to the named switches only."""
        issued_at = self.clock.peek()
        instructions = [
            Instruction(operation=operation, obj=obj, sequence=seq, issued_at=issued_at)
            for seq, (operation, obj) in enumerate(objs)
        ]
        self._push({switch_uid: (instructions, []) for switch_uid in switches})

    def _resync(self, switch_uid: str) -> None:
        """Re-push one switch's full batch (post-flap/reboot/drain recovery)."""
        batch = build_instruction_batch_for_switch(
            self.controller.policy,
            switch_uid,
            index=self.controller.build_index(),
            operation=Operation.ADD,
            issued_at=self.clock.peek(),
        )
        self._push({switch_uid: batch})

    # ------------------------------------------------------------------ #
    # Target draws (sorted candidates + per-event RNG = deterministic)
    # ------------------------------------------------------------------ #
    def _healthy_leaves(self) -> List[str]:
        """Leaves eligible for topology churn (drained switches excluded)."""
        return [
            uid
            for uid in self.controller.fabric.leaf_uids()
            if uid not in self._drained
        ]

    def _eligible_vrfs(self, index: PolicyIndex) -> Dict[str, List[str]]:
        """VRF uid -> sorted EPGs with attached endpoints (>= 2 per VRF)."""
        by_vrf: Dict[str, List[str]] = {}
        for epg in sorted(self.controller.policy.epgs(), key=lambda epg: epg.uid):
            if index.switches_for_epg(epg.uid):
                by_vrf.setdefault(epg.vrf_uid, []).append(epg.uid)
        return {vrf: epgs for vrf, epgs in by_vrf.items() if len(epgs) >= 2}

    @staticmethod
    def _draw_entries(rng: random.Random) -> Tuple[FilterEntry, ...]:
        entries = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.7:
                port = rng.choice(_COMMON_PORTS)
            else:
                port = rng.randint(1024, 49151)
            protocol = "tcp" if rng.random() < 0.85 else "udp"
            entries.append(FilterEntry(protocol=protocol, port=port))
        return tuple(entries)

    # ------------------------------------------------------------------ #
    # Event application
    # ------------------------------------------------------------------ #
    def apply(self, event: ChurnEvent) -> Dict:
        """Apply one event; returns its deterministic trace record.

        Each event kind gets its own span name (``churn.policy-add``,
        ``churn.link-flap``, …) — the kind set is small and fixed, so the
        attribution table stays readable.
        """
        if not isinstance(event, Checkpoint):
            self._events_seen += 1
        # A deterministic per-event corr id (ambient ids still win, so an
        # HTTP-triggered run keeps its request trail): incidents opened by a
        # checkpoint's forced poll inherit it, and two runs of the same
        # stream — or a snapshot-restored continuation — journal the same
        # bytes.
        corr_id = current_corr_id() or f"churn-s{event.seq:06d}"
        with correlated(corr_id=corr_id), span(f"churn.{event.kind}", seq=event.seq):
            self._expire_drains()
            if isinstance(event, PolicyAdd):
                return self._apply_add(event)
            if isinstance(event, PolicyModify):
                return self._apply_modify(event)
            if isinstance(event, PolicyRemove):
                return self._apply_remove(event)
            if isinstance(event, LinkFlap):
                return self._apply_flap(event)
            if isinstance(event, SwitchReboot):
                return self._apply_reboot(event)
            if isinstance(event, SwitchDrain):
                return self._apply_drain(event)
            if isinstance(event, FaultBurst):
                return self._apply_faults(event)
            if isinstance(event, Checkpoint):
                return self.checkpoint(event.seq).to_dict()
        raise ChurnError(f"unknown churn event type {type(event).__name__}")

    def _expire_drains(self) -> None:
        for switch_uid in sorted(self._drained):
            if self._events_seen > self._drained[switch_uid]:
                del self._drained[switch_uid]
                restore_switch(self.controller, switch_uid)
                self._resync(switch_uid)

    def _skip(self, event: ChurnEvent, reason: str) -> Dict:
        return {"event": event.kind, "seq": event.seq, "skipped": reason}

    def _apply_add(self, event: PolicyAdd) -> Dict:
        rng = random.Random(event.draw_seed)
        # Placement is read before the first edit: deriving an index between
        # the edits and the next compile would cost that compile its
        # one-step lineage (every pair compared instead of the moved ones).
        index = self.controller.build_index()
        by_vrf = self._eligible_vrfs(index)
        if not by_vrf:
            return self._skip(event, "no VRF with two attached EPGs")
        vrf_uid = rng.choice(sorted(by_vrf))
        consumer_uid, provider_uid = rng.sample(by_vrf[vrf_uid], 2)
        policy = self.controller.policy
        # Same-VRF EPGs share a tenant (VRFs are tenant-owned), so the pair's
        # tenant is unambiguous — multi-tenant policies are routed correctly.
        tenant = policy.tenant_of(consumer_uid).name
        name = f"churn-{event.rule_id}"
        flt = Filter(
            uid=f"filter:{tenant}/{name}",
            name=name,
            entries=self._draw_entries(rng),
        )
        contract = Contract(
            uid=f"contract:{tenant}/{name}", name=name, filter_uids=(flt.uid,)
        )
        self.controller.add_object(tenant, flt, detail="churn onboarding")
        self.controller.add_object(tenant, contract, detail="churn onboarding")
        consumer = self._rewire_epg(consumer_uid, consumes_add={contract.uid})
        provider = self._rewire_epg(provider_uid, provides_add={contract.uid})
        switches = tuple(
            sorted(
                set(index.switches_for_epg(consumer_uid))
                | set(index.switches_for_epg(provider_uid))
            )
        )
        vrf = policy.get(vrf_uid)
        self._push_objects(
            [
                (Operation.ADD, vrf),
                (Operation.ADD, flt),
                (Operation.ADD, contract),
                (Operation.ADD, consumer),
                (Operation.ADD, provider),
            ],
            switches,
        )
        self._rules[event.rule_id] = ChurnRule(
            rule_id=event.rule_id,
            contract_uid=contract.uid,
            filter_uid=flt.uid,
            consumer_uid=consumer_uid,
            provider_uid=provider_uid,
            vrf_uid=vrf_uid,
            switches=switches,
        )
        return {
            "event": event.kind,
            "seq": event.seq,
            "contract": contract.uid,
            "consumer": consumer_uid,
            "provider": provider_uid,
            "switches": list(switches),
        }

    def _apply_modify(self, event: PolicyModify) -> Dict:
        rng = random.Random(event.draw_seed)
        if not self._rules:
            return self._skip(event, "no churn rule to modify")
        rule = self._rules[rng.choice(sorted(self._rules))]
        flt = Filter(
            uid=rule.filter_uid,
            name=self.controller.policy.get(rule.filter_uid).name,
            entries=self._draw_entries(rng),
        )
        # A filter modify is payload-only: the derived index moves no pair,
        # and the next compile compares only the pairs relying on the filter
        # — the fast path this event family exists to keep hot.
        tenant = self.controller.policy.tenant_of(flt.uid).name
        self.controller.modify_object(tenant, flt, detail="churn rule update")
        self._push_objects([(Operation.ADD, flt)], rule.switches)
        return {
            "event": event.kind,
            "seq": event.seq,
            "filter": flt.uid,
            "entries": [f"{entry.protocol}/{entry.port}" for entry in flt.entries],
            "switches": list(rule.switches),
        }

    def _apply_remove(self, event: PolicyRemove) -> Dict:
        rng = random.Random(event.draw_seed)
        if not self._rules:
            return self._skip(event, "no churn rule to remove")
        rule_id = rng.choice(sorted(self._rules))
        rule = self._rules.pop(rule_id)
        policy = self.controller.policy
        consumer = self._rewire_epg(
            rule.consumer_uid, consumes_drop={rule.contract_uid}
        )
        provider = self._rewire_epg(
            rule.provider_uid, provides_drop={rule.contract_uid}
        )
        contract = policy.get(rule.contract_uid)
        flt = policy.get(rule.filter_uid)
        tenant = policy.tenant_of(rule.contract_uid).name
        self.controller.delete_object(tenant, contract, detail="churn offboarding")
        self.controller.delete_object(tenant, flt, detail="churn offboarding")
        self._push_objects(
            [
                (Operation.ADD, consumer),
                (Operation.ADD, provider),
                (Operation.DELETE, contract),
                (Operation.DELETE, flt),
            ],
            rule.switches,
        )
        return {
            "event": event.kind,
            "seq": event.seq,
            "contract": rule.contract_uid,
            "switches": list(rule.switches),
        }

    def _rewire_epg(
        self,
        epg_uid: str,
        provides_add: Set[str] = frozenset(),
        consumes_add: Set[str] = frozenset(),
        provides_drop: Set[str] = frozenset(),
        consumes_drop: Set[str] = frozenset(),
    ) -> Epg:
        old = self.controller.policy.get(epg_uid)
        new = Epg(
            uid=old.uid,
            name=old.name,
            vrf_uid=old.vrf_uid,
            epg_id=old.epg_id,
            provides=(old.provides | frozenset(provides_add))
            - frozenset(provides_drop),
            consumes=(old.consumes | frozenset(consumes_add))
            - frozenset(consumes_drop),
        )
        tenant = self.controller.policy.tenant_of(epg_uid).name
        self.controller.modify_object(tenant, new, detail="churn rewiring")
        return new

    def _apply_flap(self, event: LinkFlap) -> Dict:
        rng = random.Random(event.draw_seed)
        candidates = self._healthy_leaves()
        if not candidates:
            return self._skip(event, "no healthy leaf to flap")
        victim = rng.choice(candidates)
        make_switch_unresponsive(self.controller, victim)
        self.clock.tick(event.down_ticks)
        restore_switch(self.controller, victim)
        self._resync(victim)
        return {
            "event": event.kind,
            "seq": event.seq,
            "switch": victim,
            "down_ticks": event.down_ticks,
        }

    def _apply_reboot(self, event: SwitchReboot) -> Dict:
        rng = random.Random(event.draw_seed)
        candidates = self._healthy_leaves()
        if not candidates:
            return self._skip(event, "no healthy leaf to reboot")
        victim = rng.choice(candidates)
        switch = self.controller.fabric.switch(victim)
        lost = switch.tcam.remove_where(lambda rule: True)
        switch.agent.reset()
        switch.fault_log.raise_fault(
            self.clock.peek(),
            victim,
            FaultCode.SWITCH_UNREACHABLE,
            detail="switch rebooted: TCAM and agent view wiped",
        )
        self._resync(victim)
        return {
            "event": event.kind,
            "seq": event.seq,
            "switch": victim,
            "rules_lost": len(lost),
        }

    def _apply_drain(self, event: SwitchDrain) -> Dict:
        rng = random.Random(event.draw_seed)
        candidates = self._healthy_leaves()
        if not candidates:
            return self._skip(event, "no healthy leaf to drain")
        victim = rng.choice(candidates)
        make_switch_unresponsive(self.controller, victim)
        self._drained[victim] = self._events_seen + event.duration_events
        return {
            "event": event.kind,
            "seq": event.seq,
            "switch": victim,
            "duration_events": event.duration_events,
        }

    def _apply_faults(self, event: FaultBurst) -> Dict:
        # A long fault-heavy stream can strip every eligible object's rules
        # (the injector refuses up front when candidates < count, strict or
        # not); clamping keeps exhaustion a deterministic skip, not a crash.
        available = len(self.injector.faultable_objects())
        if available == 0:
            return self._skip(event, "no faultable object with deployed rules")
        faults = self.injector.inject_random_faults(
            min(event.count, available),
            kinds=self.fault_kinds,
            strict=False,
            seed=event.draw_seed,
        )
        touched: Set[str] = set()
        for fault in faults:
            touched.update(fault.removed_rules)
        return {
            "event": event.kind,
            "seq": event.seq,
            "objects": sorted(fault.object_uid for fault in faults),
            "kinds": [fault.kind.value for fault in faults],
            "switches": sorted(touched),
        }

    # ------------------------------------------------------------------ #
    # The differential oracle
    # ------------------------------------------------------------------ #
    def _full_check(self) -> EquivalenceReport:
        """Every switch's T against the from-scratch compile of L — never the
        compiled policy the monitor reads, or the oracle would vouch for a
        stale compile.
        """
        return self.system.checker.check_network(
            compile_logical_rules(self.controller.policy),
            self.controller.collect_deployed_rules(),
        )

    def checkpoint(self, seq: int = 0) -> CheckpointRecord:
        """Compare the incremental state against a from-scratch full check."""
        with span("churn.checkpoint.incremental"):
            # None when there is nothing to do; dirt a restore left comes
            # with no pending event.
            self.monitor.poll(force=True)
            incremental = self.monitor.report()
        with span("churn.checkpoint.full_check"):
            full = self._full_check()
        self._last_full_report = full
        record = CheckpointRecord(
            seq=seq,
            incremental_fingerprint=incremental.semantic_fingerprint(),
            full_fingerprint=full.semantic_fingerprint(),
            violating_switches=full.switches_with_violations(),
            incident_switches=sorted(
                {incident.switch_uid for incident in self.monitor.store.active()}
            ),
        )
        self._last_checkpoint = record
        if not record.ok:
            # Dump before the strict raise so the black box captures the
            # events leading up to the divergence, strict mode or not.
            dump_flightrecord(
                "churn-divergence",
                seq=seq,
                diverged=record.diverged,
                incidents_consistent=record.incidents_consistent,
            )
        if self.strict and not record.ok:
            problems = []
            if record.diverged:
                problems.append(
                    "incremental state diverged from the full check "
                    f"({record.incremental_fingerprint[:12]} != "
                    f"{record.full_fingerprint[:12]})"
                )
            if not record.incidents_consistent:
                problems.append(
                    f"incident ledger mismatch (violating={record.violating_switches}, "
                    f"incidents={record.incident_switches})"
                )
            raise ChurnDivergenceError(
                f"checkpoint at seq {seq}: " + "; ".join(problems), checkpoint=record
            )
        return record

    def effective_ground_truth(
        self, report: Optional[EquivalenceReport] = None
    ) -> List[str]:
        """Injected fault objects whose rules are *still* missing.

        Churn can silently repair a fault — any policy push to a faulted
        switch resynchronizes its whole TCAM — so the localization target is
        the injected objects that remain broken, not everything ever injected.
        """
        if report is None:
            report = self._last_full_report or self._full_check()
        still_missing: Set[str] = set()
        for rules in report.missing_rules().values():
            for rule in rules:
                still_missing.update(rule.objects())
        return sorted(
            {
                fault.object_uid
                for fault in self.injector.injected
                if fault.object_uid in still_missing
            }
        )

    # ------------------------------------------------------------------ #
    # Stream execution
    # ------------------------------------------------------------------ #
    def run(self, events: Optional[Sequence[ChurnEvent]] = None) -> ChurnReport:
        """Apply the whole stream (generated from the profile by default)."""
        start = time.perf_counter()
        stream = (
            list(events) if events is not None else generate_churn_stream(self.profile)
        )
        report = ChurnReport(profile=self.profile)
        with span("churn.run", events=len(stream)):
            for event in stream:
                record = self.apply(event)
                report.records.append(record)
                if isinstance(event, Checkpoint):
                    # ``apply`` stored the full CheckpointRecord on the way out.
                    report.checkpoints.append(self._last_checkpoint)
                elif "skipped" in record:
                    report.skipped += 1
                else:
                    report.counts[event.kind] = report.counts.get(event.kind, 0) + 1
                self.clock.tick()
                self.monitor.poll()
        if report.checkpoints:
            report.final_fingerprint = report.checkpoints[-1].full_fingerprint
            report.ground_truth = self.effective_ground_truth()
        for monitor_pass in self.monitor.passes:
            report.incidents_opened += len(monitor_pass.opened)
            report.incidents_resolved += len(monitor_pass.resolved)
        report.monitor_stats = self.monitor.stats()
        report.duration_seconds = time.perf_counter() - start
        return report
