"""Leaf switch and its policy agent.

Each leaf switch runs a *switch agent* (§II-A): a software process that
receives instructions from the controller, maintains a partial logical view
of the network policy (Figure 1(c)) and renders that view into TCAM rules.
The agent — not the controller — is the component that writes TCAM, which is
why the paper distinguishes *controller-level* faults (instructions never
reach the agent) from *switch-level* faults (the agent or the TCAM
misbehaves).

Fault hooks modelled here:

* ``AgentState.UNRESPONSIVE`` — the agent silently ignores instruction
  batches (the "unresponsive switch" use case of §V-B);
* ``AgentState.CRASHED`` / ``crash_after`` — the agent dies mid-batch,
  leaving the logical view (and therefore the TCAM) partially updated;
* ``buggy_dropped_objects`` — a software bug makes the agent silently drop
  specific objects from its logical view (§III: "S2 may drop the filter
  'port 700/allow' from its logical view due to software bug");
* TCAM overflow / eviction are raised by the
  :class:`~repro.fabric.tcam.TcamTable` and logged by the switch.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..clock import LogicalClock
from ..exceptions import FabricError
from ..obs import span
from ..policy.objects import Contract, Epg, Filter, PolicyObject, Vrf
from ..protocol import AttachEndpoint, Instruction, Operation
from ..rules import MatchKey, TcamRule, render_key, rules_for_pair_entry
from .faultlog import FaultCode, FaultLogBook
from .tcam import InstallOutcome, TcamTable
from .topology import SwitchRole

__all__ = ["AgentState", "SwitchAgent", "Switch"]

#: What the agent renders as one piece: ``(contract_uid, provider_uid,
#: consumer_uid)``.
RenderUnit = Tuple[str, str, str]

#: A render as the agent remembers it.  Flat per-switch lists, so that it
#: retains a handful of containers rather than a few per unit (every later
#: full garbage collection walks each one): the position of each unit; the
#: units' inputs, ``_UNIT_INPUTS`` apiece, in unit order; where each unit's
#: slice of the last two lists ends, after a leading 0; every match key
#: rendered, in rendering order; and its rule.  Then what it was rendered
#: from: the view's uids and objects, in view order, and the attachments.
LastRender = Tuple[
    Dict[RenderUnit, int],
    list,
    List[int],
    List[MatchKey],
    List[TcamRule],
    List[str],
    List[PolicyObject],
    Dict[str, str],
]

_NOTHING_RENDERED: LastRender = ({}, [], [0], [], [], [], [], {})

#: Contract, provider, consumer, VRF, the contract's filters.
_UNIT_INPUTS = 5


def _first_wins(keys: List[MatchKey], rules: List[TcamRule]) -> Dict[MatchKey, TcamRule]:
    """``keys`` mapped to ``rules`` in first-appearance order, a repeated
    key keeping its first rule.

    One ``setdefault`` pass.  Where about one key in ten repeats (a
    ``simulation`` leaf), building the dict in C and writing the first
    rules back to front costs two hashing passes and is slower.  The keys
    come from a list held beside the rules: zipping it is about three
    times faster than a ``match_key()`` call per rule.
    """
    desired: Dict[MatchKey, TcamRule] = {}
    for key, rule in zip(keys, rules):
        desired.setdefault(key, rule)
    return desired


def _unit_key(inputs: Sequence) -> list:
    """The :func:`~repro.rules.render_key` of one unit's inputs (a filter
    missing from the view stays ``None``)."""
    *objects, filters = inputs
    return [
        *map(render_key, objects),
        [None if flt is None else render_key(flt) for flt in filters],
    ]


class AgentState(str, enum.Enum):
    """Operational state of a switch agent."""

    RUNNING = "running"
    CRASHED = "crashed"
    UNRESPONSIVE = "unresponsive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SwitchAgent:
    """The software agent holding the switch's local logical policy view."""

    def __init__(self, switch_uid: str) -> None:
        self.switch_uid = switch_uid
        self.state = AgentState.RUNNING
        #: Local logical view: policy objects known to this switch.
        self.logical_view: Dict[str, PolicyObject] = {}
        #: Locally attached endpoints: endpoint uid -> EPG uid.
        self.local_attachments: Dict[str, str] = {}
        #: If set, the agent crashes after applying this many more instructions.
        self.crash_after: Optional[int] = None
        #: Object uids a buggy agent silently drops from its logical view.
        self.buggy_dropped_objects: set[str] = set()
        #: The last render (see :meth:`desired_rules`).
        self._last_render: LastRender = _NOTHING_RENDERED
        #: Units :meth:`desired_rules` rendered and reused, since creation.
        self.units_rendered = 0
        self.units_reused = 0
        #: Calls that returned the last render without walking a unit.
        self.renders_reused = 0

    def reset(self) -> None:
        """Come back from a reboot: no view, no attachments, running, no
        crash pending and nothing remembered of the last render.  The
        agent's bugs (``buggy_dropped_objects``) are its software, not its
        state, and survive."""
        self.logical_view.clear()
        self.local_attachments.clear()
        self.state = AgentState.RUNNING
        self.crash_after = None
        self._last_render = _NOTHING_RENDERED

    # ------------------------------------------------------------------ #
    # Instruction handling
    # ------------------------------------------------------------------ #
    def receive_attachments(self, attachments: Iterable[AttachEndpoint]) -> int:
        """Learn locally attached endpoints; returns how many were accepted."""
        if self.state is not AgentState.RUNNING:
            return 0
        accepted = 0
        for attach in attachments:
            if attach.switch_uid != self.switch_uid:
                continue
            self.local_attachments[attach.endpoint_uid] = attach.epg_uid
            accepted += 1
        return accepted

    def receive(self, instructions: Sequence[Instruction]) -> Tuple[int, int]:
        """Apply an instruction batch to the logical view.

        Returns ``(applied, dropped)``.  An unresponsive agent drops the
        whole batch; a crash mid-batch drops the remainder.
        """
        if self.state is not AgentState.RUNNING:
            return 0, len(instructions)
        applied = 0
        dropped = 0
        for instruction in instructions:
            if self.crash_after is not None and self.crash_after <= 0:
                self.state = AgentState.CRASHED
            if self.state is AgentState.CRASHED:
                dropped += 1
                continue
            self._apply(instruction)
            applied += 1
            if self.crash_after is not None:
                self.crash_after -= 1
        return applied, dropped

    def _apply(self, instruction: Instruction) -> None:
        obj = instruction.obj
        if obj.uid in self.buggy_dropped_objects:
            # Software bug: the agent acknowledges the instruction but never
            # materialises the object in its view.
            return
        if instruction.operation is Operation.DELETE:
            self.logical_view.pop(obj.uid, None)
        else:
            self.logical_view[obj.uid] = obj

    # ------------------------------------------------------------------ #
    # Rendering the logical view into TCAM rules
    # ------------------------------------------------------------------ #
    def local_epg_uids(self) -> set[str]:
        """EPGs with at least one endpoint attached to this switch."""
        return set(self.local_attachments.values())

    def desired_rules(self) -> Dict[MatchKey, TcamRule]:
        """Render the local logical view into the rule set this switch needs,
        keyed by match key in rendering order (first provenance wins).

        For every contract in the view, every (provider, consumer) EPG pair
        in which at least one EPG is locally attached produces two rules per
        filter entry (Figure 2).  Objects missing from the view (because an
        instruction was lost or dropped) simply produce no rules — exactly
        the failure mode the equivalence checker later observes.

        A ``(contract, provider, consumer)`` unit whose inputs — the
        contract, both EPGs, the VRF and the contract's filters — have the
        :func:`~repro.rules.render_key` of those of the previous render is
        not rendered again: its rules, and the match keys the TCAM will
        store, are reused.  The key is what a rule reads, so an EPG that
        only gained or lost a contract re-renders none of its other units.
        The comparison is made on every call, so nothing has to announce an
        edit to the view; policy objects are frozen, so an unchanged one
        costs an identity check and the key is read only for a unit whose
        inputs were replaced.  Each render replaces the memo wholesale, so it
        holds exactly the live units, and the first-provenance-wins pass
        runs over the whole render in order either way.

        Before any unit, the whole render: a view holding the same uids in
        the same order, bound to the very objects (``is``) the last render
        read, with equal attachments, renders what it did — every unit
        reused, no unit walked (``renders_reused``).  Deleting and
        re-adding an object moves it in the view, so that walks.  The dict
        returned is a fresh one either way, built from the memo's flat
        lists, so a caller may edit it.
        """
        last = self._last_render
        held_units, held_inputs, held_bounds, held_keys, held_rules = last[:5]
        held_uids, held_objects, held_attachments = last[5:]
        view = self.logical_view
        if (
            held_attachments == self.local_attachments
            and len(held_uids) == len(view)
            and all(map(operator.is_, held_objects, view.values()))
            and held_uids == list(view)
        ):
            self.units_reused += len(held_units)
            self.renders_reused += 1
            return _first_wins(held_keys, held_rules)

        local_epgs = self.local_epg_uids()
        epgs = {uid: obj for uid, obj in view.items() if isinstance(obj, Epg)}
        vrfs = {uid: obj for uid, obj in view.items() if isinstance(obj, Vrf)}
        contracts = {uid: obj for uid, obj in view.items() if isinstance(obj, Contract)}
        filters = {uid: obj for uid, obj in view.items() if isinstance(obj, Filter)}

        providers: Dict[str, list[Epg]] = {}
        consumers: Dict[str, list[Epg]] = {}
        for epg in epgs.values():
            for contract_uid in epg.provides:
                providers.setdefault(contract_uid, []).append(epg)
            for contract_uid in epg.consumes:
                consumers.setdefault(contract_uid, []).append(epg)

        units: Dict[RenderUnit, int] = {}
        inputs: list = []
        bounds = [0]
        keys: List[MatchKey] = []
        rendered: List[TcamRule] = []
        reused = 0
        for contract_uid, contract in contracts.items():
            contract_filters = tuple(map(filters.get, contract.filter_uids))
            for provider in providers.get(contract_uid, ()):
                for consumer in consumers.get(contract_uid, ()):
                    if provider.uid == consumer.uid:
                        continue
                    if provider.uid not in local_epgs and consumer.uid not in local_epgs:
                        continue
                    # Same-VRF scoping, mirroring PolicyIndex: cross-VRF
                    # provide/consume relations do not whitelist traffic.
                    if provider.vrf_uid != consumer.vrf_uid:
                        continue
                    vrf = vrfs.get(provider.vrf_uid)
                    if vrf is None:
                        continue
                    unit = (contract_uid, provider.uid, consumer.uid)
                    unit_inputs = [contract, provider, consumer, vrf, contract_filters]
                    at = held_units.get(unit)
                    if at is not None:
                        held = held_inputs[at * _UNIT_INPUTS : (at + 1) * _UNIT_INPUTS]
                        # Equal objects have equal keys, so the keys are
                        # read only for a unit one of whose inputs changed.
                        if held != unit_inputs and _unit_key(held) != _unit_key(unit_inputs):
                            at = None
                    if at is not None:
                        start, stop = held_bounds[at], held_bounds[at + 1]
                        keys += held_keys[start:stop]
                        rendered += held_rules[start:stop]
                        reused += 1
                    else:
                        fresh: List[TcamRule] = []
                        for filter_uid, flt in zip(contract.filter_uids, contract_filters):
                            if flt is None:
                                continue
                            for entry in flt.entries:
                                fresh += rules_for_pair_entry(
                                    vrf, consumer, provider, contract_uid, filter_uid, entry
                                )
                        keys += map(TcamRule.match_key, fresh)
                        rendered += fresh
                    units[unit] = len(units)
                    inputs += unit_inputs
                    bounds.append(len(keys))
        self._last_render = (
            units,
            inputs,
            bounds,
            keys,
            rendered,
            list(view),
            list(view.values()),
            dict(self.local_attachments),
        )
        self.units_reused += reused
        self.units_rendered += len(units) - reused
        return _first_wins(keys, rendered)


@dataclass
class Switch:
    """A leaf (or spine) switch: agent + TCAM + device fault log."""

    uid: str
    role: SwitchRole = SwitchRole.LEAF
    tcam: TcamTable = field(default_factory=TcamTable)
    agent: SwitchAgent = field(init=False)
    fault_log: FaultLogBook = field(default_factory=FaultLogBook)
    clock: LogicalClock = field(default_factory=LogicalClock)

    def __post_init__(self) -> None:
        self.agent = SwitchAgent(self.uid)

    # ------------------------------------------------------------------ #
    # Control-plane entry points (called by the controller's channel)
    # ------------------------------------------------------------------ #
    def receive_deployment(
        self,
        instructions: Sequence[Instruction],
        attachments: Sequence[AttachEndpoint] = (),
    ) -> Tuple[int, int]:
        """Accept a deployment batch and resynchronise the TCAM.

        Returns ``(applied, dropped)`` instruction counts.  A crash mid-batch
        is logged as an ``AGENT_CRASH`` fault; TCAM overflows encountered
        while synchronising are logged as ``TCAM_OVERFLOW`` faults.
        """
        if self.role is not SwitchRole.LEAF:
            raise FabricError(f"policy can only be deployed to leaf switches, not {self.uid!r}")
        self.agent.receive_attachments(attachments)
        before_state = self.agent.state
        applied, dropped = self.agent.receive(instructions)
        if before_state is AgentState.RUNNING and self.agent.state is AgentState.CRASHED:
            self.fault_log.raise_fault(
                self.clock.peek(),
                self.uid,
                FaultCode.AGENT_CRASH,
                detail=f"agent crashed after applying {applied} of {applied + dropped} instructions",
            )
        if self.agent.state is AgentState.RUNNING:
            self.sync_tcam()
        return applied, dropped

    def sync_tcam(self) -> Dict[str, int]:
        """Diff the agent's desired rules against the TCAM and apply the delta.

        Rules the agent no longer wants are removed; missing rules are
        installed.  Overflows and evictions are logged.  Returns counters for
        inspection.

        The stale rules go before anything is installed, and the missing
        ones are installed in the agent's rendering order — never raw
        set-difference order, whose per-process hash randomization would
        make the install sequence (and, on a capacity-limited TCAM, *which*
        rules overflow) irreproducible across runs.  The campaign
        record/replay gate depends on this being a pure function of the
        instruction stream.

        Traced as one ``fabric.sync_tcam`` span counting the render's
        ``units_rendered`` / ``units_reused`` / ``renders_reused`` and the
        writes' ``installed`` / ``removed``.
        """
        agent = self.agent
        with span("fabric.sync_tcam", switch=self.uid) as sync_span:
            rendered, reused = agent.units_rendered, agent.units_reused
            renders_reused = agent.renders_reused
            counters = self._reconcile(agent.desired_rules())
            sync_span.count("units_rendered", agent.units_rendered - rendered)
            sync_span.count("units_reused", agent.units_reused - reused)
            sync_span.count("renders_reused", agent.renders_reused - renders_reused)
            sync_span.count("installed", counters["installed"])
            sync_span.count("removed", counters["removed"])
        return counters

    def _reconcile(self, desired: Dict[MatchKey, TcamRule]) -> Dict[str, int]:
        """Make the TCAM hold ``desired``: :meth:`sync_tcam`'s writes.

        One :meth:`TcamTable.write` — one transaction, so listeners hear of
        the whole reconcile once: the held keys the agent no longer wants
        go, then the wanted rules the TCAM lacks go in, in ``desired``'s
        order.  Of the rules past the capacity, the first rejection and
        every eviction are logged in that order.
        """
        held = set(self.tcam.match_keys())
        fresh = {key: rule for key, rule in desired.items() if key not in held}
        removed, overflowed = self.tcam.write(held.difference(desired), fresh)

        installed = len(fresh) - len(overflowed)
        rejected = evicted = 0
        for outcome, evicted_rule in overflowed:
            if outcome is InstallOutcome.REJECTED_FULL:
                rejected += 1
                if rejected == 1:
                    self.fault_log.raise_fault(
                        self.clock.peek(),
                        self.uid,
                        FaultCode.TCAM_OVERFLOW,
                        detail=(
                            f"TCAM full ({self.tcam.capacity} entries); "
                            f"rule install rejected"
                        ),
                    )
            elif outcome is InstallOutcome.INSTALLED_WITH_EVICTION:
                installed += 1
                evicted += 1
                self.fault_log.raise_fault(
                    self.clock.peek(),
                    self.uid,
                    FaultCode.RULE_EVICTION,
                    detail=f"evicted {evicted_rule.describe() if evicted_rule else 'rule'}",
                )
        return {
            "installed": installed,
            "removed": len(removed),
            "rejected": rejected,
            "evicted": evicted,
        }

    # ------------------------------------------------------------------ #
    # Fault helpers (used by the fault injector and the use cases)
    # ------------------------------------------------------------------ #
    def make_unresponsive(self) -> None:
        """Stop the agent from accepting controller messages."""
        self.agent.state = AgentState.UNRESPONSIVE
        self.fault_log.raise_fault(
            self.clock.peek(),
            self.uid,
            FaultCode.SWITCH_UNREACHABLE,
            detail="switch stopped responding to the controller",
        )

    def restore(self) -> None:
        """Bring the agent back to a running state (faults stay in the log)."""
        self.agent.state = AgentState.RUNNING
        self.agent.crash_after = None
        self.fault_log.clear_device(self.uid, self.clock.peek())

    def deployed_rules(self) -> List[TcamRule]:
        """Rules currently present in the switch TCAM (the T side of L-T)."""
        return self.tcam.rules()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Switch(uid={self.uid!r}, role={self.role.value}, "
            f"rules={len(self.tcam)}, state={self.agent.state.value})"
        )
