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
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

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

#: What :meth:`SwitchAgent.take_delta` hands the switch: the match keys that
#: left the render, and the rules whose keys entered it, in rendering order.
RenderDelta = Tuple[List[MatchKey], Dict[MatchKey, TcamRule]]

#: A reverse map: uid -> the uids naming it, as dict keys.
_Index = Dict[str, Dict]

#: Contract, provider, consumer, VRF, the contract's filters.
_UNIT_INPUTS = 5
_NO_INPUTS = [None] * _UNIT_INPUTS


def _unit_key(inputs: Sequence) -> list:
    """The :func:`~repro.rules.render_key` of one unit's inputs (a filter
    missing from the view stays ``None``)."""
    *objects, filters = inputs
    return [
        *map(render_key, objects),
        [None if flt is None else render_key(flt) for flt in filters],
    ]


def _link(index: _Index, uid: str, member) -> None:
    index.setdefault(uid, {})[member] = None


def _unlink(index: _Index, uid: str, member) -> None:
    members = index.get(uid)
    if members is not None:
        members.pop(member, None)
        if not members:
            del index[uid]


class AgentState(str, enum.Enum):
    """Operational state of a switch agent."""

    RUNNING = "running"
    CRASHED = "crashed"
    UNRESPONSIVE = "unresponsive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SwitchAgent:
    """The software agent holding the switch's local logical policy view.

    The view and the attachments have exactly three writers: an
    instruction (:meth:`_apply`), an attachment
    (:meth:`receive_attachments`) and a reboot (:meth:`reset`).  Everyone
    else reads them through :attr:`logical_view` and
    :attr:`local_attachments`, read-only views.  The writers record every
    uid they changed, so :meth:`render` visits the units those uids name
    and no other.
    """

    def __init__(self, switch_uid: str) -> None:
        self.switch_uid = switch_uid
        self.state = AgentState.RUNNING
        #: If set, the agent crashes after applying this many more instructions.
        self.crash_after: Optional[int] = None
        #: Object uids a buggy agent silently drops from its logical view.
        self.buggy_dropped_objects: set[str] = set()
        #: Since creation: the units :meth:`render` visited; of the live
        #: units after each render, those it rendered and those it kept
        #: (``units_rendered + units_reused`` grows by the live units every
        #: render); and the renders that visited no unit.
        self.units_visited = 0
        self.units_rendered = 0
        self.units_reused = 0
        self.renders_reused = 0
        self._forget()

    def _forget(self) -> None:
        """No view, no attachments and nothing rendered from them."""
        # The view and the attachments, written by the three writers only.
        self._view: Dict[str, PolicyObject] = {}
        self._attachments: Dict[str, str] = {}
        #: Local logical view: the policy objects known to this switch, in
        #: the order they entered it (read-only).
        self.logical_view: Mapping[str, PolicyObject] = MappingProxyType(self._view)
        #: Locally attached endpoints: endpoint uid -> EPG uid (read-only).
        self.local_attachments: Mapping[str, str] = MappingProxyType(self._attachments)
        #: uid -> a counter drawn when the uid entered the view: it sorts
        #: as the view's order does and moves exactly when that does.
        self._position: Dict[str, int] = {}
        self._drawn = 0
        #: EPG uid -> how many endpoints are attached to it here.
        self._local: Dict[str, int] = {}
        #: uid -> the object the last render read under it (``None``:
        #: none), for every uid a writer changed since.
        self._changed: Dict[str, Optional[PolicyObject]] = {}
        # The render, in flat lists rather than a few containers per unit
        # (every container retained is walked by every full collection):
        # a slot per live unit; per slot, its inputs (_UNIT_INPUTS apiece)
        # and where its rules start and stop in _keys / _rules, which a
        # render appends to and a compaction rewrites without dead entries.
        self._slots: Dict[RenderUnit, int] = {}
        self._inputs: list = []
        self._bounds: List[int] = []
        self._free: List[int] = []
        self._keys: List[MatchKey] = []
        self._rules: List[TcamRule] = []
        #: Entries of _keys / _rules no live slot points at.
        self._dead = 0
        #: While ``_ordered``, the render: every match key a live unit
        #: renders, in rendering order, to its first rule.  Once a render
        #: changed it, every such key to one of its rules — kept only from
        #: the first take_delta() on, as ``_repeats`` is.
        self._by_key: Dict[MatchKey, TcamRule] = {}
        self._ordered = True
        #: match key -> how many more live rendered rules carry it than one.
        self._repeats: Dict[MatchKey, int] = {}
        # Reverse maps from a changed uid to the units it names: a unit is a
        # contract with one EPG providing it and one consuming it.
        self._providers: _Index = {}  # contract uid -> EPGs providing it
        self._consumers: _Index = {}  # contract uid -> EPGs consuming it
        self._vrf_epgs: _Index = {}  # VRF uid -> EPGs naming it
        self._filter_contracts: _Index = {}  # filter uid -> contracts naming it
        # Since the last take_delta(), once one was taken: the keys that
        # entered and left the render, and the units rendered.
        self._taken = False
        self._entered: Dict[MatchKey, None] = {}
        self._left: Dict[MatchKey, None] = {}
        self._rendered_units: Dict[RenderUnit, None] = {}

    def __getstate__(self) -> Dict:
        # The read-only views do not pickle; they are remade from the dicts.
        state = dict(self.__dict__)
        del state["logical_view"], state["local_attachments"]
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self.logical_view = MappingProxyType(self._view)
        self.local_attachments = MappingProxyType(self._attachments)

    def reset(self) -> None:
        """Come back from a reboot: no view, no attachments, running, no
        crash pending and nothing remembered of the last render.  The
        agent's bugs (``buggy_dropped_objects``) are its software, not its
        state, and survive."""
        self.state = AgentState.RUNNING
        self.crash_after = None
        self._forget()

    def _touch(self, uid: str) -> None:
        """Record that ``uid`` changes, before the view does."""
        if uid not in self._changed:
            self._changed[uid] = self._view.get(uid)

    # ------------------------------------------------------------------ #
    # Instruction handling
    # ------------------------------------------------------------------ #
    def receive_attachments(self, attachments: Iterable[AttachEndpoint]) -> int:
        """Learn locally attached endpoints; returns how many were accepted.

        An EPG that gains its first local endpoint or loses its last one
        is recorded as changed."""
        if self.state is not AgentState.RUNNING:
            return 0
        accepted = 0
        local = self._local
        for attach in attachments:
            if attach.switch_uid != self.switch_uid:
                continue
            accepted += 1
            epg_uid = attach.epg_uid
            was = self._attachments.get(attach.endpoint_uid)
            if was == epg_uid:
                continue
            self._attachments[attach.endpoint_uid] = epg_uid
            if was is not None:
                if local[was] > 1:
                    local[was] -= 1
                else:
                    del local[was]
                    self._touch(was)
            if epg_uid in local:
                local[epg_uid] += 1
            else:
                local[epg_uid] = 1
                self._touch(epg_uid)
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
        """Write one instruction into the view.  Re-delivering the object
        the view holds (``is``) changes nothing; a delete and a re-add
        move the object to the end of the view, which is a change."""
        obj = instruction.obj
        uid = obj.uid
        if uid in self.buggy_dropped_objects:
            # Software bug: the agent acknowledges the instruction but never
            # materialises the object in its view.
            return
        view = self._view
        if instruction.operation is Operation.DELETE:
            if uid in view:
                self._touch(uid)
                del view[uid], self._position[uid]
        elif view.get(uid) is not obj:
            self._touch(uid)
            if uid not in view:
                self._position[uid] = self._drawn
                self._drawn += 1
            view[uid] = obj

    # ------------------------------------------------------------------ #
    # Rendering the logical view into TCAM rules
    # ------------------------------------------------------------------ #
    def render(self) -> None:
        """Bring the render of the local logical view up to date.

        For every contract in the view, every (provider, consumer) EPG pair
        in which at least one EPG is locally attached produces two rules per
        filter entry (Figure 2).  Objects missing from the view (because an
        instruction was lost or dropped) simply produce no rules — exactly
        the failure mode the equivalence checker later observes.  Each
        ``(contract, provider, consumer)`` unit is rendered, in the order
        of its *rank* — the view positions of its contract, its provider
        and its consumer — and a repeated match key keeps the rule of its
        lowest-ranked holder (:meth:`rendered_rules`).

        Only the *dirty* units are visited: those naming a uid a writer
        changed since the last render — a contract or EPG (itself, or an
        EPG whose first endpoint came or last one went), the VRF of one of
        their EPGs, or a filter of their contract — found through reverse
        maps held beside the render, together with the units such a
        change may have created.  A dirty unit whose inputs — the
        contract, both EPGs, the VRF and the contract's filters — have the
        :func:`~repro.rules.render_key` of those it was rendered from
        keeps its rules, so an EPG that only gained or lost a contract
        re-renders none of its other units; policy objects are frozen, so
        an unchanged one costs an identity check and the key is read only
        for a unit whose inputs were replaced.  A render that nothing
        changed visits no unit (``renders_reused``).
        """
        changed, self._changed = self._changed, {}
        view, slots = self._view, self._slots
        contracts, epgs = self._touched(changed)
        # The live units the change names, read as the last render read the
        # view: each changed EPG as it was, the reverse maps as they were.
        dirty: Dict[RenderUnit, None] = {
            unit: None
            for unit in self._units(
                contracts, epgs, lambda uid: changed[uid] if uid in changed else view.get(uid), None
            )
            if unit in slots
        }
        for uid, old in changed.items():
            new = view.get(uid)
            if new is not old:
                self._index(uid, old, _unlink)
                self._index(uid, new, _link)
        # And the units it may create, read from the view as it is.
        dirty.update(dict.fromkeys(self._units(contracts, epgs, view.get, self._local)))
        rendered = self._visit(dirty)
        if dirty:
            self._ordered = False
        else:
            self.renders_reused += 1
        if self._dead > len(self._keys) - self._dead:
            self._compact()
        self.units_visited += len(dirty)
        self.units_rendered += rendered
        self.units_reused += len(self._slots) - rendered

    def _index(self, uid: str, obj: Optional[PolicyObject], link) -> None:
        """Enter (``_link``) or withdraw (``_unlink``) what ``obj`` names
        in the reverse maps."""
        if isinstance(obj, Epg):
            for contract_uid in obj.provides:
                link(self._providers, contract_uid, uid)
            for contract_uid in obj.consumes:
                link(self._consumers, contract_uid, uid)
            link(self._vrf_epgs, obj.vrf_uid, uid)
        elif isinstance(obj, Contract):
            for filter_uid in obj.filter_uids:
                link(self._filter_contracts, filter_uid, uid)

    def _touched(
        self, changed: Mapping[str, Optional[PolicyObject]]
    ) -> Tuple[Dict[str, None], Dict[str, None]]:
        """The contracts and EPGs a change names: the changed ones, the
        EPGs in a changed VRF and the contracts naming a changed filter."""
        view = self._view
        contracts: Dict[str, None] = {}
        epgs: Dict[str, None] = {}
        for uid, old in changed.items():
            for obj in (old, view.get(uid)):
                if isinstance(obj, Epg):
                    epgs[uid] = None
                elif isinstance(obj, Contract):
                    contracts[uid] = None
                elif isinstance(obj, Vrf):
                    epgs.update(self._vrf_epgs.get(uid, ()))
                elif isinstance(obj, Filter):
                    contracts.update(self._filter_contracts.get(uid, ()))
        return contracts, epgs

    def _units(
        self,
        contracts: Iterable[str],
        epgs: Iterable[str],
        epg_of: Callable[[str], Optional[PolicyObject]],
        local: Optional[Mapping[str, int]],
    ) -> Iterator[RenderUnit]:
        """Every ``(contract, provider, consumer)`` that names one of
        ``contracts`` or ``epgs`` by the reverse maps, each EPG's own
        contracts read from ``epg_of``; with ``local``, only the pairs of
        two EPGs of which one is in it."""
        providers, consumers = self._providers, self._consumers

        def pairs(contract_uid: str, provider_uids, consumer_uids) -> Iterator[RenderUnit]:
            for provider_uid in provider_uids:
                if local is None or provider_uid in local:
                    for consumer_uid in consumer_uids:
                        yield contract_uid, provider_uid, consumer_uid
                else:
                    for consumer_uid in consumer_uids:
                        if consumer_uid in local:
                            yield contract_uid, provider_uid, consumer_uid

        for contract_uid in contracts:
            yield from pairs(
                contract_uid, providers.get(contract_uid, ()), consumers.get(contract_uid, ())
            )
        for epg_uid in epgs:
            epg = epg_of(epg_uid)
            if not isinstance(epg, Epg):
                continue
            # The units of a contract named above are all in already.
            for contract_uid in epg.provides.difference(contracts):
                yield from pairs(contract_uid, (epg_uid,), consumers.get(contract_uid, ()))
            for contract_uid in epg.consumes.difference(contracts):
                yield from pairs(contract_uid, providers.get(contract_uid, ()), (epg_uid,))

    def _visit(self, dirty: Iterable[RenderUnit]) -> int:
        """Drop, keep or render each dirty unit; returns how many it rendered."""
        view, local, slots = self._view, self._local, self._slots
        filters_of: Dict[str, tuple] = {}
        rendered = 0
        for unit in dirty:
            contract_uid, provider_uid, consumer_uid = unit
            contract = view.get(contract_uid)
            provider = view.get(provider_uid)
            consumer = view.get(consumer_uid)
            vrf = None
            if (
                isinstance(contract, Contract)
                and isinstance(provider, Epg)
                and isinstance(consumer, Epg)
                and provider_uid != consumer_uid
                and contract_uid in provider.provides
                and contract_uid in consumer.consumes
                and (provider_uid in local or consumer_uid in local)
                # Same-VRF scoping, mirroring PolicyIndex: cross-VRF
                # provide/consume relations do not whitelist traffic.
                and provider.vrf_uid == consumer.vrf_uid
            ):
                vrf = view.get(provider.vrf_uid)
            slot = slots.get(unit)
            if not isinstance(vrf, Vrf):
                if slot is not None:
                    self._drop(unit, slot)
                continue
            filters = filters_of.get(contract_uid)
            if filters is None:
                filters = filters_of[contract_uid] = tuple(
                    flt if isinstance(flt, Filter) else None
                    for flt in map(view.get, contract.filter_uids)
                )
            unit_inputs = [contract, provider, consumer, vrf, filters]
            if slot is None:
                slot = self._allocate(unit)
            else:
                at = slot * _UNIT_INPUTS
                held = self._inputs[at : at + _UNIT_INPUTS]
                # Equal objects have equal keys, so the keys are read only
                # for a unit one of whose inputs changed.
                if held == unit_inputs or _unit_key(held) == _unit_key(unit_inputs):
                    self._inputs[at : at + _UNIT_INPUTS] = unit_inputs
                    continue
                self._release(slot)
            at = slot * _UNIT_INPUTS
            self._inputs[at : at + _UNIT_INPUTS] = unit_inputs
            fresh: List[TcamRule] = []
            for filter_uid, flt in zip(contract.filter_uids, filters):
                if flt is None:
                    continue
                for entry in flt.entries:
                    fresh += rules_for_pair_entry(
                        vrf, consumer, provider, contract_uid, filter_uid, entry
                    )
            self._hold(unit, slot, fresh)
            rendered += 1
        return rendered

    def _allocate(self, unit: RenderUnit) -> int:
        if self._free:
            slot = self._free.pop()
        else:
            slot = len(self._bounds) // 2
            self._inputs += _NO_INPUTS
            self._bounds += (0, 0)
        self._slots[unit] = slot
        return slot

    def _drop(self, unit: RenderUnit, slot: int) -> None:
        self._release(slot)
        del self._slots[unit]
        self._free.append(slot)
        at = slot * _UNIT_INPUTS
        self._inputs[at : at + _UNIT_INPUTS] = _NO_INPUTS

    def _hold(self, unit: RenderUnit, slot: int, rules: List[TcamRule]) -> None:
        """Append a unit's fresh rules and, once a delta was taken, count
        their keys in."""
        keys = list(map(TcamRule.match_key, rules))
        self._bounds[2 * slot] = len(self._keys)
        self._keys += keys
        self._rules += rules
        self._bounds[2 * slot + 1] = len(self._keys)
        if not self._taken:
            return
        by_key, repeats = self._by_key, self._repeats
        fresh = dict(zip(keys, rules))
        if len(fresh) == len(keys) and by_key.keys().isdisjoint(fresh):
            # Every key is new to the render: one update in C.
            by_key.update(fresh)
        else:
            fresh = {}
            for key, rule in zip(keys, rules):
                if key in by_key:
                    repeats[key] = repeats.get(key, 0) + 1
                else:
                    by_key[key] = fresh[key] = rule
        self._rendered_units[unit] = None
        for key in fresh:
            if key in self._left:
                del self._left[key]
            else:
                self._entered[key] = None

    def _release(self, slot: int) -> None:
        """Mark a slot's entries dead and, once a delta was taken, count
        their keys out."""
        start, stop = self._bounds[2 * slot : 2 * slot + 2]
        self._dead += stop - start
        if not self._taken:
            return
        by_key, repeats = self._by_key, self._repeats
        for key in self._keys[start:stop]:
            count = repeats.get(key)
            if count:
                if count > 1:
                    repeats[key] = count - 1
                else:
                    del repeats[key]
                continue
            del by_key[key]
            if key in self._entered:
                del self._entered[key]
            else:
                self._left[key] = None

    def _ranked(self, units: Iterable[RenderUnit]) -> List[RenderUnit]:
        """``units`` sorted by rank."""
        position = self._position
        return sorted(
            units,
            key=lambda unit: (position[unit[0]], position[unit[1]], position[unit[2]]),
        )

    def _compact(self) -> None:
        """Rewrite _keys / _rules without their dead entries."""
        bounds, held_keys, held_rules = self._bounds, self._keys, self._rules
        keys: List[MatchKey] = []
        rules: List[TcamRule] = []
        for slot in self._slots.values():
            at = 2 * slot
            start, stop = bounds[at], bounds[at + 1]
            bounds[at] = len(keys)
            keys += held_keys[start:stop]
            rules += held_rules[start:stop]
            bounds[at + 1] = len(keys)
        self._keys, self._rules, self._dead = keys, rules, 0

    def rendered_rules(self) -> Mapping[MatchKey, TcamRule]:
        """The last :meth:`render`: the rule set this switch needs, keyed by
        match key in rendering order (first provenance wins), read-only.

        Rebuilt — one first-provenance-wins pass over the live units in
        rank order — only after a render changed it; until then every call
        returns a view of the same dict.
        """
        if not self._ordered:
            self._rebuild()
        return MappingProxyType(self._by_key)

    def _rebuild(self) -> None:
        """Key every live rule in rank order, the first rule of a key
        winning, and count the keys more than one rule carries."""
        slots, bounds, keys, rules = self._slots, self._bounds, self._keys, self._rules
        by_key: Dict[MatchKey, TcamRule] = {}
        repeats: Dict[MatchKey, int] = {}
        for unit in self._ranked(slots):
            at = 2 * slots[unit]
            start, stop = bounds[at], bounds[at + 1]
            for key, rule in zip(keys[start:stop], rules[start:stop]):
                if key in by_key:
                    repeats[key] = repeats.get(key, 0) + 1
                else:
                    by_key[key] = rule
        self._by_key, self._repeats, self._ordered = by_key, repeats, True

    def take_delta(self) -> Optional[RenderDelta]:
        """What the renders since the last call changed: the match keys
        that left, and every key that entered with the rule of its
        lowest-ranked holder, in rendering order.  ``None`` on the first
        call since creation or :meth:`reset`, when nothing is known of
        what came before.

        A key that entered is held only by units rendered since the last
        call (any other live unit carries the rules it carried then), so
        those units, sorted by rank, are all it reads.
        """
        if not self._taken:
            # From here on every render counts its keys in and out.
            if not self._ordered:
                self._rebuild()
            self._taken = True
            return None
        stale = list(self._left)
        fresh: Dict[MatchKey, TcamRule] = {}
        entered, slots, bounds = self._entered, self._slots, self._bounds
        if entered:
            live = [unit for unit in self._rendered_units if unit in slots]
            for unit in self._ranked(live):
                at = 2 * slots[unit]
                start, stop = bounds[at], bounds[at + 1]
                for key, rule in zip(self._keys[start:stop], self._rules[start:stop]):
                    if key in entered and key not in fresh:
                        fresh[key] = rule
        self._entered, self._left, self._rendered_units = {}, {}, {}
        return stale, fresh


@dataclass
class Switch:
    """A leaf (or spine) switch: agent + TCAM + device fault log."""

    uid: str
    role: SwitchRole = SwitchRole.LEAF
    tcam: TcamTable = field(default_factory=TcamTable)
    agent: SwitchAgent = field(init=False)
    fault_log: FaultLogBook = field(default_factory=FaultLogBook)
    clock: LogicalClock = field(default_factory=LogicalClock)
    #: The TCAM and its write count after this switch's last write, when
    #: that write left the TCAM holding every key the agent rendered.
    _synced: Optional[Tuple[TcamTable, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

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
        """Render the agent's view and make the TCAM hold what it renders.

        Rules the agent no longer wants are removed; missing rules are
        installed, in one :meth:`TcamTable.write`.  Overflows and evictions
        are logged.  Returns counters for inspection.

        When the TCAM is untouched since this switch's last write and that
        write installed everything, the TCAM holds exactly the keys the
        agent last handed over, so the write is the agent's
        :meth:`~SwitchAgent.take_delta`: the keys that left the render and
        those that entered it.  Otherwise — a wipe or a fault touched the
        table, a reboot reset the agent, an earlier write overflowed — the
        sync reconciles against the table: the held keys the render lacks
        go, the rendered rules the table lacks go in.  Either way the
        missing rules are installed in the agent's rendering order — never
        raw set-difference order, whose per-process hash randomization
        would make the install sequence (and, on a capacity-limited TCAM,
        *which* rules overflow) irreproducible across runs.  The campaign
        record/replay gate depends on this being a pure function of the
        instruction stream.

        Traced as one ``fabric.sync_tcam`` span: ``reconcile`` is
        ``"delta"`` or ``"full"``, and it counts the render's
        ``units_visited`` / ``units_rendered`` / ``units_reused`` /
        ``renders_reused`` and the write's ``installed`` / ``removed``.
        """
        agent, tcam = self.agent, self.tcam
        with span("fabric.sync_tcam", switch=self.uid) as sync_span:
            visited, rendered = agent.units_visited, agent.units_rendered
            reused, renders_reused = agent.units_reused, agent.renders_reused
            agent.render()
            delta = agent.take_delta()
            if delta is not None and self._synced == (tcam, tcam.writes):
                sync_span.set("reconcile", "delta")
                counters = self._write(*delta)
            else:
                sync_span.set("reconcile", "full")
                counters = self._reconcile(agent.rendered_rules())
            sync_span.count("units_visited", agent.units_visited - visited)
            sync_span.count("units_rendered", agent.units_rendered - rendered)
            sync_span.count("units_reused", agent.units_reused - reused)
            sync_span.count("renders_reused", agent.renders_reused - renders_reused)
            sync_span.count("installed", counters["installed"])
            sync_span.count("removed", counters["removed"])
        return counters

    def _reconcile(self, desired: Mapping[MatchKey, TcamRule]) -> Dict[str, int]:
        """Make the TCAM hold ``desired``, whatever it holds now: the held
        keys ``desired`` lacks go, the rules of ``desired`` the TCAM lacks
        go in, in ``desired``'s order.

        The held keys come off the table's dict with their stored hashes.
        ``desired`` holds ``len(desired) - len(fresh)`` of them, so when
        that is every one — a table that only lost rules, the common case —
        nothing is stale and no difference is taken."""
        held = self.tcam.key_set()
        fresh = {key: rule for key, rule in desired.items() if key not in held}
        kept = len(desired) - len(fresh)
        return self._write(held.difference(desired) if len(held) > kept else (), fresh)

    def _write(
        self, stale: Collection[MatchKey], fresh: Dict[MatchKey, TcamRule]
    ) -> Dict[str, int]:
        """:meth:`sync_tcam`'s one :meth:`TcamTable.write`, so listeners
        hear of the whole sync once: ``stale`` goes, then ``fresh`` goes
        in, in its order.  Of the rules past the capacity, the first
        rejection and every eviction are logged in that order."""
        removed, overflowed = self.tcam.write(stale, fresh)
        self._synced = None if overflowed else (self.tcam, self.tcam.writes)

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
