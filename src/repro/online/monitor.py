"""The continuous monitoring daemon.

:class:`NetworkMonitor` closes the loop the paper's architecture (§V,
Figure 6) runs as a batch pipeline:

1. :func:`~repro.online.instrument.instrument` turns controller/fabric state
   transitions into typed events on an :class:`~repro.online.bus.EventBus`;
2. the monitor buffers events and *debounces* them against the shared
   :class:`~repro.clock.LogicalClock` — a burst (one deployment is a TCAM
   write on every leaf) collapses into a single processing pass
   once the clock has advanced ``debounce_ticks`` past the last event;
3. a pass makes one request for the controller's compiled policy (the
   monitor compiles nothing itself), asks the
   :class:`~repro.online.delta.IncrementalChecker` to re-validate only the
   blast radius against it, runs a *scoped* SCOUT localization
   (per-switch risk model, existing :class:`~repro.core.scout.ScoutLocalizer`)
   on every switch still violating, and drives the
   :class:`~repro.online.incidents.IncidentStore` lifecycle:
   a new violation opens an incident, a changed one updates it, a clean
   re-check resolves it.

The monitor is synchronous and deterministic: ``poll()`` is the single
entry point, so simulations and tests control exactly when work happens.

Partitioning
------------
Every monitor is partitioned; the default is the one-partition case of the
same code.  A :class:`~repro.online.partition.PartitionMap` (rule-count-
weighted LPT, same planner as the parallel sweep) assigns every switch an
owner, each of the ``partitions=N`` slots runs its own
:class:`IncrementalChecker` scoped to its slice, and a poll refreshes the
partitions (on concurrent threads when ``max_workers`` allows) before
merging their disjoint results into one deterministic, uid-sorted incident
pass.  No poll spawns a process: each checker re-checks its dirty switches
where it stands, on its own engine.  Verdicts are partition-independent —
each switch is judged from the same logical/deployed state whoever owns it
— so any partition count is fingerprint-identical to one.

Snapshot / restore
------------------
:meth:`NetworkMonitor.snapshot` captures what cannot be recomputed — checker
state (all partitions, merged: the verdict fingerprint of every violating
switch, dirt, counters — no copy of L or T), the incident store, the pending
event batch (a switch and two counts per TCAM write: kilobytes even
mid-burst) and the debounce bookkeeping — as one JSON-ready dict;
:meth:`NetworkMonitor.restore` (or :meth:`NetworkMonitor.from_snapshot`)
adopts it around one ordinary bootstrap sweep applied to no incident —
``full_checks`` moves by one per checker — and the restored monitor's report
and incident journal stay byte-identical to a never-restarted monitor
consuming the same stream.  A switch whose fresh verdict is not the recorded
one (the policy or a TCAM moved while the monitor was down) is re-checked by
the first poll that runs, which opens, updates or resolves its incident.
Restoring into a different partition count is a rebalance: the merged state
reshards along the new map.  Version-1 to -3 documents still restore: whole
results (1, 2) are read for the verdicts, copies of L and T ignored, and
each per-rule pending event counts as a write of one rule.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Set

from ..controller.compiler import CompiledRules
from ..controller.controller import Controller
from ..core.hypothesis import Hypothesis
from ..obs import correlated, current_corr_id, span
from ..core.scout import RecentChangeOracle, ScoutLocalizer
from ..policy.graph import PolicyIndex
from ..risk.augment import augment_switch_model
from ..risk.switch_model import build_switch_risk_model
from ..verify.checker import EquivalenceChecker, EquivalenceReport, SwitchCheckResult
from .bus import EventBus
from .delta import IncrementalChecker, merge_checker_states
from .events import (
    DeviceFault,
    Event,
    PolicyChanged,
    TcamChanged,
    event_from_dict,
)
from .incidents import Incident, IncidentStore
from .instrument import Instrumentation, instrument
from .partition import PartitionMap

__all__ = ["MonitorPass", "NetworkMonitor", "SNAPSHOT_VERSION"]

#: Version tag stamped into monitor snapshots.  Version 3 carried one pending
#: event, rule body included, per rule written, version 2 also every switch's
#: whole result and both its key sets, version 1 the checker's own compile of
#: L as well; :meth:`NetworkMonitor.restore` still reads all three.
SNAPSHOT_VERSION = 4
_READABLE_VERSIONS = (1, 2, 3, SNAPSHOT_VERSION)


#: Snapshot fields that must hold a (non-bool) integer when present ...
_INT_FIELDS = (
    "clock", "partitions", "debounce_ticks", "max_wait_ticks",
    "poll_seq", "passes", "events_seen",
)  # fmt: skip
#: ... and the ones that may also be null (no batch pending).
_NULLABLE_INT_FIELDS = ("first_event_at", "last_event_at")


def _require_snapshot(snapshot: Dict) -> None:
    """Reject anything that is not a monitor snapshot of a readable version,
    or whose scalar fields are not the integers the monitor does arithmetic on."""
    if not isinstance(snapshot, dict) or snapshot.get("kind") != "monitor-snapshot":
        raise ValueError("not a monitor snapshot (missing kind tag)")
    version = snapshot.get("version")
    if type(version) is not int or version not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported monitor snapshot version {version!r} "
            f"(expected one of {_READABLE_VERSIONS})"
        )
    if not isinstance(snapshot.get("checker"), dict):
        raise ValueError("malformed snapshot field 'checker': expected an object")
    for name in _INT_FIELDS + _NULLABLE_INT_FIELDS:
        value = snapshot.get(name, 0)
        nullable = name in _NULLABLE_INT_FIELDS
        if type(value) is not int and not (nullable and value is None):
            raise ValueError(
                f"malformed snapshot field {name!r}: expected an integer, got {value!r}"
            )


def _parse_field(name: str, parse: Callable, value):
    """``parse(value)``; a malformed section is a ValueError naming it."""
    try:
        return parse(value)
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(
            f"malformed snapshot field {name!r}: {type(exc).__name__}: {exc}"
        ) from exc


@dataclass
class MonitorPass:
    """What one processing pass of the monitor did."""

    triggered_at: int
    events: int
    switches_rechecked: List[str] = field(default_factory=list)
    opened: List[Incident] = field(default_factory=list)
    updated: List[Incident] = field(default_factory=list)
    resolved: List[Incident] = field(default_factory=list)

    @property
    def quiet(self) -> bool:
        """True when the pass changed no incident."""
        return not (self.opened or self.updated or self.resolved)

    def to_dict(self) -> Dict:
        """JSON-ready form (incidents via :meth:`Incident.to_dict`)."""
        return {
            "triggered_at": self.triggered_at,
            "events": self.events,
            "quiet": self.quiet,
            "switches_rechecked": list(self.switches_rechecked),
            "opened": [incident.to_dict() for incident in self.opened],
            "updated": [incident.to_dict() for incident in self.updated],
            "resolved": [incident.to_dict() for incident in self.resolved],
        }

    def describe(self) -> str:
        lines = [
            f"monitor pass at t={self.triggered_at}: {self.events} event(s), "
            f"rechecked {len(self.switches_rechecked)} switch(es) "
            f"({', '.join(self.switches_rechecked) or '-'})"
        ]
        for label, incidents in (
            ("opened", self.opened),
            ("updated", self.updated),
            ("resolved", self.resolved),
        ):
            for incident in incidents:
                lines.append(f"  {label}: {incident.describe()}")
        return "\n".join(lines)


class NetworkMonitor:
    """Event-driven equivalence checking and continuous SCOUT localization."""

    def __init__(
        self,
        controller: Controller,
        debounce_ticks: int = 1,
        change_window: int = 100,
        max_workers: Optional[int] = None,
        partitions: int = 1,
        partition_map: Optional[PartitionMap] = None,
    ) -> None:
        self.controller = controller
        self.clock = controller.clock
        self.bus = EventBus()
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        #: The switch-ownership split.  An explicit map wins over
        #: ``partitions`` — that is how a restore keeps the ownership a
        #: snapshot was taken under.
        self.partition_map: PartitionMap = partition_map or self._plan_partition_map(
            controller, partitions
        )
        self.partitions = len(self.partition_map)
        base_checker = EquivalenceChecker()
        #: One checker per partition, indexed like the map's slots.
        self.checkers: List[IncrementalChecker] = []
        for index in range(self.partitions):
            if index == 0:
                part_checker = base_checker
            else:
                # Sibling partitions may refresh on concurrent threads, and
                # the atom table is not thread-safe — every partition gets
                # its own engine clone (same space/engine, own atoms).
                part_checker = EquivalenceChecker(
                    rule_space=base_checker.rule_space,
                    engine=base_checker.engine,
                )
            # A sole partition owns everything: ``owned=None`` keeps its
            # per-bus-event ownership test a ``None`` check instead of a map
            # lookup that always says yes.
            owned = self._owner_predicate(index) if self.partitions > 1 else None
            self.checkers.append(
                IncrementalChecker(controller, checker=part_checker, owned=owned)
            )
        self.localizer = ScoutLocalizer(
            change_oracle=RecentChangeOracle(
                change_log=controller.change_log, window=change_window
            )
        )
        self.store = IncidentStore()
        #: Threads that refresh partitions concurrently.  ``None`` (or one
        #: partition) refreshes them in a plain loop.
        self.max_workers = max_workers
        self.debounce_ticks = debounce_ticks
        #: Upper bound on how long a pending batch may wait for the burst to
        #: settle; without it, a steady event stream would starve the monitor
        #: forever.  Five debounce windows.
        self.max_wait_ticks = 5 * debounce_ticks
        self.passes: List[MonitorPass] = []
        self._pending: List[Event] = []
        self._first_event_at: Optional[int] = None
        self._last_event_at: Optional[int] = None
        self._instrumentation: Optional[Instrumentation] = None
        #: Monotonic poll counter — part of the deterministic poll corr id,
        #: carried through snapshots so a restored monitor's incident corr
        #: ids continue the sequence instead of restarting it.
        self._poll_seq = 0
        self._restores = 0
        self._restored_passes = 0
        self._restored_events = 0

    @staticmethod
    def _plan_partition_map(controller: Controller, partitions: int) -> PartitionMap:
        """LPT-balance the fabric's switches by deployed rule count."""
        switches = controller.fabric.switches
        # len(tcam) is the deployed rule count without copying the rules out.
        weights = {uid: max(1, len(switch.tcam)) for uid, switch in switches.items()}
        return PartitionMap.plan(switches, partitions, weights=weights)

    def _owner_predicate(self, index: int) -> Callable[[str], bool]:
        partition_of = self.partition_map.partition_of
        return lambda uid: partition_of(uid) == index

    def _checker_for(self, switch_uid: str) -> IncrementalChecker:
        """The checker owning ``switch_uid``."""
        return self.checkers[self.partition_map.partition_of(switch_uid)]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._instrumentation is not None

    def start(self) -> EquivalenceReport:
        """Instrument the controller/fabric and establish the baseline.

        The bootstrap is the monitor's one full sweep; violations already
        present open incidents immediately, so a monitor attached to a
        degraded network starts with an accurate picture.
        """
        if self.running:
            raise RuntimeError("monitor is already running")
        self._instrumentation = instrument(self.controller, self.bus)
        self.bus.subscribe(self._on_event)
        compiled = self.checkers[0].compile()
        results: Dict[str, SwitchCheckResult] = {}
        for index, checker in enumerate(self.checkers):
            with span("monitor.bootstrap", partition=index):
                results.update(checker.bootstrap(compiled).results)
        report = EquivalenceReport(results=dict(sorted(results.items())))
        baseline = MonitorPass(triggered_at=self.clock.peek(), events=0)
        self._apply_results(results, baseline, compiled.index)
        if not baseline.quiet:
            self.passes.append(baseline)
        # Bootstrapping consumed the current state; drop events the sweep
        # itself may have triggered observers for.
        self._pending.clear()
        self._first_event_at = None
        self._last_event_at = None
        return report

    def stop(self) -> None:
        """Detach from the controller/fabric; the incident store survives."""
        if self._instrumentation is not None:
            self._instrumentation.detach()
            self._instrumentation = None
        self.bus.unsubscribe(self._on_event)

    def close(self) -> None:
        """Detach, if attached (:meth:`stop` — a monitor holds nothing else
        to release)."""
        self.stop()

    # ------------------------------------------------------------------ #
    # Event intake
    # ------------------------------------------------------------------ #
    def _on_event(self, event: Event) -> None:
        self._pending.append(event)
        if self._first_event_at is None:
            self._first_event_at = event.timestamp
        self._last_event_at = event.timestamp
        if isinstance(event, PolicyChanged):
            # Policy blast radii can land on any partition's switches, so
            # the change is broadcast; each checker resolves it against its
            # own slice.
            for checker in self.checkers:
                checker.note_policy_change(event.object_uid, event.object_type)
        elif isinstance(event, TcamChanged):
            self._checker_for(event.switch_uid).note_switch_change(event.switch_uid)
        elif isinstance(event, DeviceFault):
            if event.device_uid in self.controller.fabric:
                self._checker_for(event.device_uid).note_switch_change(
                    event.device_uid
                )

    def pending_events(self) -> int:
        return len(self._pending)

    def _checker_dirt(self) -> bool:
        """True while any checker holds dirty switches or unresolved policy
        changes.  Dirt normally arrives with an event; a restore that finds
        the policy moved leaves dirt no event announced, and the next poll —
        not the next unrelated bus event — is what must re-check it."""
        return any(checker.has_pending_work() for checker in self.checkers)

    def due(self, now: Optional[int] = None) -> bool:
        """True when the pending burst has settled for ``debounce_ticks``.

        A batch also comes due once its *oldest* event has waited
        ``max_wait_ticks``, so a steady event stream (which never settles)
        cannot starve detection indefinitely.  With no event pending, dirt
        a restore left on a checker is due at once: it has no burst to
        wait out.
        """
        if not self._pending:
            return self._checker_dirt()
        if self._last_event_at is None:
            return True
        now = self.clock.peek() if now is None else now
        if now - self._last_event_at >= self.debounce_ticks:
            return True
        return (
            self._first_event_at is not None
            and now - self._first_event_at >= self.max_wait_ticks
        )

    # ------------------------------------------------------------------ #
    # Processing
    # ------------------------------------------------------------------ #
    def poll(self, force: bool = False) -> Optional[MonitorPass]:
        """Process the pending event batch if it is due (or ``force`` is set).

        Returns the :class:`MonitorPass` describing what happened, or
        ``None`` when there was nothing (ready) to do: no pending event and
        no checker holding dirt (a pass over dirt alone records
        ``events=0``).
        """
        if not self._pending and not self._checker_dirt():
            return None
        now = self.clock.peek()
        if not force and not self.due(now):
            return None
        events = self._pending
        first_event_at = self._first_event_at
        self._pending = []
        self._first_event_at = None
        self._poll_seq += 1
        # The correlated() wrapper opens before the span so the poll span and
        # everything beneath it — the checks, localization, the incident
        # the pass may open — share one id: the caller's, when an HTTP
        # request triggered the poll, else a *deterministic* poll id (clock
        # time + poll sequence number, both snapshot-carried), so the corr
        # ids stamped onto incidents replay byte-identically across runs
        # and restarts.
        corr_id = current_corr_id() or f"poll-t{now}-{self._poll_seq:06d}"
        with correlated(corr_id=corr_id):
            with span("monitor.poll", events=len(events)) as poll_span:
                fault_codes: Dict[str, Set[str]] = {}
                for event in events:
                    if isinstance(event, DeviceFault):
                        fault_codes.setdefault(event.device_uid, set()).add(
                            event.code.value
                        )
                try:
                    # The pass's one compile request, whatever the partition
                    # count: every partition checks against it, violations
                    # are localized under its index.  Booked on partition 0,
                    # where a restore puts the merged counters too.
                    compiled = self.checkers[0].compile()
                    refreshed = self._refresh_all(compiled)
                except BaseException:
                    # A failed refresh (an engine bug, an invalid rule) must
                    # not lose the batch: put the events back in front of
                    # anything that arrived meanwhile and restore the
                    # debounce timestamps, so due() fires again and the next
                    # poll retries the same work.
                    self._pending = events + self._pending
                    self._first_event_at = first_event_at
                    if self._last_event_at is None and events:
                        self._last_event_at = events[-1].timestamp
                    self._poll_seq -= 1
                    raise
                result = MonitorPass(triggered_at=now, events=len(events))
                self._apply_results(refreshed, result, compiled.index, fault_codes)
                poll_span.count("rechecked", len(result.switches_rechecked))
        self.passes.append(result)
        return result

    def _refresh_all(self, compiled: CompiledRules) -> Dict[str, SwitchCheckResult]:
        """Refresh every partition against ``compiled`` and merge their
        disjoint result maps.

        With ``max_workers`` the partitions refresh on concurrent threads;
        otherwise (or with one partition) they run in a plain loop.
        If any partition fails (the plain loop stops there; threads have
        all run by then), switches the *successful* partitions re-checked
        are re-dirtied before the first error propagates, so the retry
        re-applies their (cheap, memo-answered) verdicts in the same pass
        as the recovered partition's — no incident transition is lost or
        split.
        """

        def run_partition(index: int, checker: IncrementalChecker):
            with span("monitor.partition", partition=index):
                return checker.refresh(compiled=compiled)

        attempts = [
            # copy_context() ships the ambient corr id and span down to a
            # worker thread (both are context-local); inline it is a no-op.
            partial(contextvars.copy_context().run, run_partition, index, checker)
            for index, checker in enumerate(self.checkers)
        ]
        threads = min(self.partitions, self.max_workers or 1)
        if threads > 1:
            with ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="monitor-partition"
            ) as executor:
                attempts = [executor.submit(attempt).result for attempt in attempts]
        refreshed: Dict[str, SwitchCheckResult] = {}
        failures: List[BaseException] = []
        for attempt in attempts:
            try:
                refreshed.update(attempt())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)
                if threads <= 1:
                    # Nothing after this one has run: leave its dirt alone.
                    break
        if failures:
            for switch_uid in refreshed:
                self._checker_for(switch_uid).note_switch_change(switch_uid)
            raise failures[0]
        return refreshed

    def _apply_results(
        self,
        results: Dict[str, SwitchCheckResult],
        monitor_pass: MonitorPass,
        index: PolicyIndex,
        fault_codes: Optional[Dict[str, Set[str]]] = None,
    ) -> None:
        now = monitor_pass.triggered_at
        # Capture, per faulted device, the incident that was active *during*
        # the batch — before the lifecycle step below can resolve it.  A
        # fault observed in the same pass that resolves its switch's
        # incident belongs to that incident, not to the void.
        batch_incidents: Dict[str, Optional[Incident]] = {
            device_uid: self.store.active_for(device_uid)
            for device_uid in (fault_codes or {})
        }
        for switch_uid in sorted(results):
            result = results[switch_uid]
            monitor_pass.switches_rechecked.append(switch_uid)
            active = self.store.active_for(switch_uid)
            if not result.equivalent:
                hypothesis = self._localize_switch(index, switch_uid, result)
                suspects = sorted(str(risk) for risk in hypothesis.objects())
                if active is None:
                    incident = self.store.open(
                        switch_uid,
                        now,
                        missing_rules=result.missing_count(),
                        extra_rules=len(result.extra_rules),
                        suspects=suspects,
                        corr_id=current_corr_id(),
                    )
                    monitor_pass.opened.append(incident)
                elif (
                    active.missing_rules != result.missing_count()
                    or active.extra_rules != len(result.extra_rules)
                    or active.suspects != suspects
                ):
                    incident = self.store.update(
                        switch_uid,
                        now,
                        missing_rules=result.missing_count(),
                        extra_rules=len(result.extra_rules),
                        suspects=suspects,
                    )
                    monitor_pass.updated.append(incident)
                # An unchanged violation is not an update: the incident (and
                # anything paging on it) only moves when the evidence does.
            elif active is not None:
                incident = self.store.resolve(switch_uid, now)
                if incident is not None:
                    monitor_pass.resolved.append(incident)
        for device_uid, codes in sorted((fault_codes or {}).items()):
            # Fall back to the now-active incident for a switch whose
            # incident *opened* in this very pass.
            incident = batch_incidents.get(device_uid) or self.store.active_for(
                device_uid
            )
            for code in sorted(codes):
                self.store.note_fault(device_uid, code, incident=incident)

    def _localize_switch(
        self, index: PolicyIndex, switch_uid: str, result: SwitchCheckResult
    ) -> Hypothesis:
        """Scoped SCOUT: one switch risk model under ``index`` (the one the
        verdict was checked against), augmented with its misses."""
        with span("monitor.localize", switch=switch_uid) as localize_span:
            model = build_switch_risk_model(index, switch_uid)
            localize_span.set("structure", "reused" if model.structure_reused else "built")
            localize_span.count("missing_rules", len(result.missing_rules))
            localize_span.count(
                "edges_flipped", augment_switch_model(model, result.missing_rules)
            )
            localize_span.count("pairs_resolved", model.pairs_resolved)
            return self.localizer.localize(model)

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict:
        """The monitor's full state as one JSON-ready dict.

        Carries the merged checker state of every partition, the incident
        store, the pending (not yet polled) event batch with its debounce
        timestamps, the partition map and the poll/clock counters — enough
        for :meth:`restore` to resume exactly where this monitor stands,
        with byte-identical downstream output.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "kind": "monitor-snapshot",
            "clock": self.clock.peek(),
            "partitions": self.partitions,
            "partition_map": self.partition_map.to_dict(),
            "debounce_ticks": self.debounce_ticks,
            "max_wait_ticks": self.max_wait_ticks,
            "poll_seq": self._poll_seq,
            "passes": len(self.passes) + self._restored_passes,
            "events_seen": self.bus.total_events() + self._restored_events,
            "pending_events": [event.to_dict() for event in self._pending],
            "first_event_at": self._first_event_at,
            "last_event_at": self._last_event_at,
            "checker": merge_checker_states(
                [checker.snapshot_state() for checker in self.checkers]
            ),
            "incidents": self.store.snapshot(),
        }

    def restore(self, snapshot: Dict) -> None:
        """Adopt a :meth:`snapshot` payload and attach to the controller.

        Must be called *instead of* :meth:`start` (on a monitor that is not
        running): the bootstrap sweep runs, but against the recorded
        verdicts instead of the incident store — what it finds changed is
        left dirty for the first poll; the incident store refills
        in place (references held by the service stay valid); pending events
        and debounce timestamps come back so not even an unprocessed batch
        is lost; and instrumentation attaches last, after all state is in
        place.  The logical clock catches up to the snapshot's time if it
        is behind (it never runs backward).
        """
        if self.running:
            raise RuntimeError("cannot restore a running monitor (stop it first)")
        _require_snapshot(snapshot)
        # Parse every section, then sweep, before touching anything: a
        # malformed document is a ValueError naming its field, a policy that
        # does not compile or a fabric that cannot be checked raises what the
        # compile or the check raised, and either way the monitor stays
        # un-attached, the shared clock unmoved and a following start()
        # working.  The compile is booked to no counter: of the snapshot's
        # counters a restore moves ``full_checks`` only.
        sweeps = _parse_field(
            "checker",
            # Counters land on partition 0 only: they were merged across
            # partitions at snapshot time, so restoring the sum everywhere
            # would multiply it.  Aggregated stats() sums right back.
            lambda state: [
                checker.parse_state(state, with_stats=(index == 0))
                for index, checker in enumerate(self.checkers)
            ],
            snapshot["checker"],
        )
        pending = _parse_field(
            "pending_events",
            lambda events: [event_from_dict(data) for data in events],
            snapshot.get("pending_events", ()),
        )
        compiled = self.controller._compiled_rules()
        adoptions = [sweep(compiled) for sweep in sweeps]
        # The store validates its whole payload before replacing its contents,
        # so this is the last step that can reject the snapshot.
        _parse_field(
            "incidents",
            self.store.restore,
            snapshot.get("incidents", {"incidents": [], "counter": 0}),
        )
        snapshot_clock = snapshot.get("clock", 0)
        behind = snapshot_clock - self.clock.peek()
        if behind > 0:
            self.clock.tick(behind)
        self.debounce_ticks = snapshot.get("debounce_ticks", self.debounce_ticks)
        self.max_wait_ticks = snapshot.get("max_wait_ticks", self.max_wait_ticks)
        self._poll_seq = snapshot.get("poll_seq", 0)
        self._restored_passes = snapshot.get("passes", 0)
        self._restored_events = snapshot.get("events_seen", 0)
        for adopt in adoptions:
            adopt()
        self._pending = pending
        self._first_event_at = snapshot.get("first_event_at")
        self._last_event_at = snapshot.get("last_event_at")
        self._restores += 1
        self._instrumentation = instrument(self.controller, self.bus)
        self.bus.subscribe(self._on_event)

    @classmethod
    def from_snapshot(
        cls,
        controller: Controller,
        snapshot: Dict,
        partitions: Optional[int] = None,
        **kwargs,
    ) -> "NetworkMonitor":
        """Build a monitor around ``controller`` and restore ``snapshot``.

        Without ``partitions`` the snapshot's own partition map is reused —
        ownership survives the restart even if the fabric's rule weights
        shifted meanwhile.  Passing a different count is a *rebalance*: the
        merged checker state reshards along a freshly planned map (safe,
        because per-switch verdicts are partition-independent).
        """
        _require_snapshot(snapshot)
        # Null in snapshots written before every monitor carried a map.
        stored_map = snapshot.get("partition_map")
        count = partitions if partitions is not None else snapshot.get("partitions", 1)
        if stored_map is not None:
            stored_map = _parse_field(
                "partition_map", PartitionMap.from_dict, stored_map
            )
            if len(stored_map) != count:
                stored_map = None  # a rebalance: replan on the new count
        monitor = cls(
            controller,
            partitions=count,
            partition_map=stored_map,
            **kwargs,
        )
        monitor.restore(snapshot)
        return monitor

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def report(self) -> EquivalenceReport:
        """The live network-wide L-T verdict (no sweep; may lag pending events)."""
        results: Dict[str, SwitchCheckResult] = {}
        for checker in self.checkers:
            results.update(checker.results())
        return EquivalenceReport(results=dict(sorted(results.items())))

    def stats(self) -> Dict[str, int]:
        combined = dict(self.checkers[0].stats())
        for checker in self.checkers[1:]:
            for key, value in checker.stats().items():
                # Atom-table gauges are per-engine-clone, not additive.
                if key in ("atom_version", "atom_patches"):
                    continue
                combined[key] = combined.get(key, 0) + value
        combined.update(
            {
                "events_seen": self.bus.total_events() + self._restored_events,
                "pending_events": len(self._pending),
                "passes": len(self.passes) + self._restored_passes,
                "incidents": len(self.store),
                "active_incidents": len(self.store.active()),
                "partitions": self.partitions,
                "restores": self._restores,
            }
        )
        return combined
