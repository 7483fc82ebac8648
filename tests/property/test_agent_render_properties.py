"""The agent's incremental render == a from-scratch render, under any view edit.

``SwitchAgent.render`` visits only the ``(contract, provider, consumer)``
units that a change recorded by the view's writers names, and keeps a
visited unit's rules while the :func:`~repro.rules.render_key` of its inputs
equals that of the ones they were rendered from.  First, the key itself:
for every field of ``Vrf``, ``Epg``, ``Contract`` and ``Filter``, editing it
changes no rule :func:`~repro.rules.rules_for_pair_entry` renders, or the
field is in :data:`~repro.rules.RENDERED_FIELDS`.  Then a state machine
feeds one agent, through its writers only, instruction batches — adds,
modifies (some carrying an equal but distinct object, some editing only
fields no rule reads) and deletes of VRFs, filters, contracts and EPGs —
buggy drops, attachment changes, crashes mid-batch, writes past the
agent's state gate, deletes and re-adds of one object, endpoints moved
between local EPGs, attempts to edit a render it handed out and
``reset()``; and it takes rules out of the switch's TCAM (one at a time,
by predicate, or all) between edits and syncs.  Every render must render
exactly the units whose key is new or moved, and must visit no unit when
no writer was called since the last render and the view is the one that
render read.  After every step the agent is held to two references kept
here, not in ``src/``:

* :func:`reference_render`, a literal transcription of the whole-view loop
  the incremental render replaced: same keys, same order, same rule
  (``to_dict()``, provenance included) — and a repeated render re-renders
  nothing;
* a fresh agent handed the same view: ``sync_tcam`` on a capacity-limited
  TCAM, evicting or not, leaves the same table in the same order, returns
  the same counters and logs the same faults as on a fresh agent given a
  copy of the table.  The fresh agent always reconciles in full; the
  machine's agent writes only the render's delta whenever its last sync
  installed everything and nothing wrote to the TCAM since — the sync must
  say which it did, and the two must agree.

Objects are drawn from a handful of uids with colliding VRF scopes and EPG
class ids, so duplicate match keys inside a unit and across units — where
first provenance wins — are common.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.clock import LogicalClock
from repro.fabric import AgentState, Switch, SwitchAgent, TcamTable
from repro.obs import TraceCollector, activated
from repro.policy.objects import Contract, Epg, Filter, FilterEntry, Vrf
from repro.protocol import AttachEndpoint, Instruction, Operation
from repro.rules import (
    RENDERED_FIELDS,
    MatchKey,
    TcamRule,
    render_key,
    rules_for_pair_entry,
)

pytestmark = pytest.mark.slow

SWITCH = "leaf-1"
VRF_UIDS = ("vrf:a", "vrf:b")
FILTER_UIDS = ("filter:0", "filter:1", "filter:2")
CONTRACT_UIDS = ("contract:0", "contract:1", "contract:2")
EPG_UIDS = ("epg:0", "epg:1", "epg:2", "epg:3")
ENDPOINT_UIDS = ("ep:0", "ep:1", "ep:2")
ENTRIES = (
    FilterEntry("tcp", 80),
    FilterEntry("tcp", 443),
    FilterEntry("udp", 53),
    FilterEntry("icmp", None),
)
UIDS = VRF_UIDS + FILTER_UIDS + CONTRACT_UIDS + EPG_UIDS


# ---------------------------------------------------------------------- #
# The reference
# ---------------------------------------------------------------------- #
def reference_render(agent: SwitchAgent) -> Tuple[Dict[MatchKey, TcamRule], int]:
    """The whole-view render before the memo, line for line, and how many
    units it walked."""
    local_epgs = set(agent.local_attachments.values())
    view = agent.logical_view
    epgs = {uid: obj for uid, obj in view.items() if isinstance(obj, Epg)}
    vrfs = {uid: obj for uid, obj in view.items() if isinstance(obj, Vrf)}
    contracts = {uid: obj for uid, obj in view.items() if isinstance(obj, Contract)}
    filters = {uid: obj for uid, obj in view.items() if isinstance(obj, Filter)}

    providers: Dict[str, List[Epg]] = {}
    consumers: Dict[str, List[Epg]] = {}
    for epg in epgs.values():
        for contract_uid in epg.provides:
            providers.setdefault(contract_uid, []).append(epg)
        for contract_uid in epg.consumes:
            consumers.setdefault(contract_uid, []).append(epg)

    rules: Dict[MatchKey, TcamRule] = {}
    units = 0
    for contract_uid, contract in contracts.items():
        for provider in providers.get(contract_uid, ()):
            for consumer in consumers.get(contract_uid, ()):
                if provider.uid == consumer.uid:
                    continue
                if provider.uid not in local_epgs and consumer.uid not in local_epgs:
                    continue
                if provider.vrf_uid != consumer.vrf_uid:
                    continue
                vrf = vrfs.get(provider.vrf_uid)
                if vrf is None:
                    continue
                units += 1
                for filter_uid in contract.filter_uids:
                    flt = filters.get(filter_uid)
                    if flt is None:
                        continue
                    for entry in flt.entries:
                        for rendered in rules_for_pair_entry(
                            vrf, consumer, provider, contract_uid, filter_uid, entry
                        ):
                            rules.setdefault(rendered.match_key(), rendered)
    return rules, units


def reference_unit_keys(agent: SwitchAgent) -> Dict[tuple, list]:
    """Every unit :func:`reference_render` walks, in order, with the
    :func:`render_key` of its inputs."""
    local_epgs = set(agent.local_attachments.values())
    view = agent.logical_view
    epgs = [obj for obj in view.values() if isinstance(obj, Epg)]
    units: Dict[tuple, list] = {}
    for contract_uid, contract in view.items():
        if not isinstance(contract, Contract):
            continue
        filters = []
        for filter_uid in contract.filter_uids:
            flt = view.get(filter_uid)
            filters.append(render_key(flt) if isinstance(flt, Filter) else None)
        for provider in (epg for epg in epgs if contract_uid in epg.provides):
            for consumer in (epg for epg in epgs if contract_uid in epg.consumes):
                vrf = view.get(provider.vrf_uid)
                if (
                    provider.uid == consumer.uid
                    or {provider.uid, consumer.uid}.isdisjoint(local_epgs)
                    or provider.vrf_uid != consumer.vrf_uid
                    or not isinstance(vrf, Vrf)
                ):
                    continue
                units[contract_uid, provider.uid, consumer.uid] = [
                    render_key(contract),
                    render_key(provider),
                    render_key(consumer),
                    render_key(vrf),
                    tuple(filters),
                ]
    return units


def _as_dicts(rules) -> List[dict]:
    return [rendered.to_dict() for rendered in rules]


def _faults(records) -> List[tuple]:
    return [(record.code, record.detail) for record in records]


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
def _vrf(uid: str):
    return st.builds(
        lambda scope: Vrf(uid=uid, name=uid, scope_id=scope),
        st.integers(min_value=101, max_value=102),
    )


def _filter(uid: str):
    return st.builds(
        lambda entries: Filter(uid=uid, name=uid, entries=tuple(entries)),
        st.lists(st.sampled_from(ENTRIES), max_size=3),
    )


def _contract(uid: str):
    return st.builds(
        lambda filter_uids: Contract(
            uid=uid, name=uid, filter_uids=tuple(filter_uids)
        ),
        st.lists(
            st.sampled_from(FILTER_UIDS + ("filter:ghost",)), min_size=1, max_size=3
        ),
    )


def _epg(uid: str):
    contracts = st.frozensets(st.sampled_from(CONTRACT_UIDS), min_size=1, max_size=3)
    return st.builds(
        lambda vrf_uid, epg_id, provides, consumes: Epg(
            uid=uid,
            name=uid,
            vrf_uid=vrf_uid,
            epg_id=epg_id,
            provides=provides,
            consumes=consumes,
        ),
        # Mostly one VRF, so pairs exist; sometimes another, or none known.
        st.sampled_from(("vrf:a", "vrf:a", "vrf:a", "vrf:b", "vrf:ghost")),
        st.integers(min_value=1, max_value=3),
        contracts,
        contracts,
    )


#: One of every object: the view an agent starts from.
_baseline = st.tuples(
    *map(_vrf, VRF_UIDS),
    *map(_filter, FILTER_UIDS),
    *map(_contract, CONTRACT_UIDS),
    *map(_epg, EPG_UIDS),
)
_objects = st.one_of(
    st.sampled_from(VRF_UIDS).flatmap(_vrf),
    st.sampled_from(FILTER_UIDS).flatmap(_filter),
    st.sampled_from(CONTRACT_UIDS).flatmap(_contract),
    st.sampled_from(EPG_UIDS).flatmap(_epg),
)
_batches = st.lists(
    st.tuples(st.sampled_from(list(Operation)), _objects), min_size=1, max_size=4
)
_picks = st.integers(min_value=0, max_value=10_000)


# ---------------------------------------------------------------------- #
# The key: a field no rule reads, or a field in it
# ---------------------------------------------------------------------- #
#: A value to edit each field of a rendered object to.  A field added to
#: one of the four classes must be added here, or the key test fails.
_FIELD_VALUES = {
    "uid": st.sampled_from(UIDS + ("other:0",)),
    "name": st.text(max_size=3),
    "scope_id": st.integers(min_value=101, max_value=103),
    "vrf_uid": st.sampled_from(VRF_UIDS + ("vrf:ghost",)),
    "epg_id": st.integers(min_value=1, max_value=4),
    "provides": st.frozensets(st.sampled_from(CONTRACT_UIDS)),
    "consumes": st.frozensets(st.sampled_from(CONTRACT_UIDS)),
    "filter_uids": st.lists(st.sampled_from(FILTER_UIDS), max_size=3).map(tuple),
    "entries": st.lists(st.sampled_from(ENTRIES), max_size=3).map(tuple),
}
_RENDERED_KINDS = (Vrf, Epg, Contract, Filter)


def _unit_rules(vrf, provider, consumer, contract, filters) -> List[dict]:
    """One unit's rules as the agent renders them: each of the contract's
    filter uids looked up among ``filters`` (a missing one renders none)."""
    by_uid = {flt.uid: flt for flt in filters}
    return [
        rendered.to_dict()
        for filter_uid in contract.filter_uids
        if filter_uid in by_uid
        for entry in by_uid[filter_uid].entries
        for rendered in rules_for_pair_entry(
            vrf, consumer, provider, contract.uid, filter_uid, entry
        )
    ]


def test_the_key_names_real_fields_of_the_rendered_kinds():
    assert set(RENDERED_FIELDS) == set(_RENDERED_KINDS)
    for kind, names in RENDERED_FIELDS.items():
        assert set(names) <= {field.name for field in dataclasses.fields(kind)}


@pytest.mark.parametrize(
    "kind, name",
    [
        (kind, field.name)
        for kind in _RENDERED_KINDS
        for field in dataclasses.fields(kind)
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_field_outside_the_key_changes_no_rendered_rule(kind, name, data):
    vrf = data.draw(_vrf("vrf:a"))
    provider = data.draw(_epg("epg:0"))
    consumer = data.draw(_epg("epg:1"))
    contract = data.draw(_contract("contract:0"))
    filters = [data.draw(_filter(uid)) for uid in FILTER_UIDS]
    inputs = {
        Vrf: [vrf],
        Epg: [provider, consumer],
        Contract: [contract],
        Filter: filters,
    }
    edited = data.draw(st.sampled_from(inputs[kind]))
    value = data.draw(_FIELD_VALUES[name])
    inputs[kind] = [
        dataclasses.replace(obj, **{name: value}) if obj is edited else obj
        for obj in inputs[kind]
    ]
    before = _unit_rules(vrf, provider, consumer, contract, filters)
    after = _unit_rules(*inputs[Vrf], *inputs[Epg], *inputs[Contract], inputs[Filter])
    if name not in RENDERED_FIELDS[kind]:
        assert after == before


def _table(capacity: int, evict: bool, rules) -> TcamTable:
    table = TcamTable(capacity=capacity, evict_on_overflow=evict)
    for held in rules:
        table.write((), {held.match_key(): held})
    return table


def _write(agent: SwitchAgent, operation: Operation, obj) -> None:
    """One instruction through the view's writer, past the state gate."""
    agent._apply(Instruction(operation=operation, obj=obj))


def _twin(agent: SwitchAgent, capacity: int, evict: bool, rules) -> Switch:
    """A fresh switch whose agent was handed ``agent``'s view, in its order,
    and attachments, in front of a table holding ``rules``."""
    twin = Switch(uid=SWITCH, tcam=_table(capacity, evict, rules), clock=LogicalClock())
    for obj in agent.logical_view.values():
        _write(twin.agent, Operation.ADD, obj)
    twin.agent.receive_attachments(
        AttachEndpoint(endpoint_uid=endpoint, epg_uid=epg, switch_uid=SWITCH)
        for endpoint, epg in agent.local_attachments.items()
    )
    return twin


# ---------------------------------------------------------------------- #
# The state machine
# ---------------------------------------------------------------------- #
class AgentRenderMachine(RuleBasedStateMachine):
    """One agent behind one capacity-limited TCAM, edited every way it can be."""

    @initialize(
        baseline=_baseline,
        capacity=st.integers(min_value=2, max_value=8),
        evict=st.booleans(),
    )
    def start(self, baseline, capacity, evict):
        self.capacity, self.evict = capacity, evict
        self.switch = Switch(
            uid=SWITCH, tcam=TcamTable(capacity=capacity, evict_on_overflow=evict)
        )
        self.agent = self.switch.agent
        self._count_what_renders()
        self.switch.receive_deployment(
            [Instruction(operation=Operation.ADD, obj=obj) for obj in baseline],
            [
                AttachEndpoint(endpoint_uid="ep:0", epg_uid="epg:0", switch_uid=SWITCH),
                AttachEndpoint(endpoint_uid="ep:1", epg_uid="epg:2", switch_uid=SWITCH),
            ],
        )
        #: Whether the TCAM holds exactly the keys of the last sync's render:
        #: that sync neither rejected nor evicted, and nothing wrote since.
        tcam = self.switch.tcam
        self.in_step = not (tcam.rejected_installs or tcam.evictions)

    def _count_what_renders(self):
        """Hold every render of the agent — by a rule here, a sync or the
        invariant — to rendering exactly the units whose
        :func:`reference_unit_keys` entry is new or moved since the last;
        to counting a reused render exactly when it visits no unit; to
        visiting none when no writer was called since and it reads the very
        view items and equal attachments the last one read; and to visiting
        some only when a writer was called."""
        agent, render = self.agent, self.agent.render
        self.unit_keys: Dict[tuple, list] = {}
        self.rendered_from: Tuple[list, dict] = ([], {})
        self.wrote = True

        def recording(writer):
            def write(*args, **kwargs):
                self.wrote = True
                return writer(*args, **kwargs)

            return write

        for name in ("_apply", "receive_attachments", "reset"):
            setattr(agent, name, recording(getattr(agent, name)))

        def counted_render():
            keys = reference_unit_keys(agent)
            moved = sum(self.unit_keys.get(unit) != key for unit, key in keys.items())
            items = list(agent.logical_view.items())
            held_items, held_attachments = self.rendered_from
            identical = (
                len(items) == len(held_items)
                and all(
                    uid == held_uid and obj is held_obj
                    for (uid, obj), (held_uid, held_obj) in zip(items, held_items)
                )
                and agent.local_attachments == held_attachments
            )
            rendered, reused = agent.units_rendered, agent.renders_reused
            visited = agent.units_visited
            render()
            assert agent.units_rendered - rendered == moved
            assert agent.renders_reused - reused == (agent.units_visited == visited)
            if not self.wrote:
                assert agent.units_visited == visited
            if not identical:
                assert self.wrote
            self.wrote = False
            self.unit_keys = keys
            self.rendered_from = (items, dict(agent.local_attachments))

        agent.render = counted_render

    def _rendered_now(self) -> int:
        """Bring the render up to the current view; how many units it rendered."""
        before = self.agent.units_rendered
        self.agent.render()
        return self.agent.units_rendered - before

    # -- instruction batches ------------------------------------------- #
    @rule(batch=_batches)
    def deliver(self, batch):
        self.agent.receive(
            [
                Instruction(operation=operation, obj=obj, sequence=seq)
                for seq, (operation, obj) in enumerate(batch)
            ]
        )

    @rule(pick=_picks, directly=st.booleans())
    def modify_with_an_equal_copy(self, pick, directly):
        """An equal but distinct object re-renders nothing, but it is not
        the object the last render read: its units are visited."""
        view = self.agent.logical_view
        if not view:
            return
        current = view[sorted(view)[pick % len(view)]]
        copy = dataclasses.replace(current)
        assert copy == current and copy is not current
        self._rendered_now()
        if directly:
            _write(self.agent, Operation.MODIFY, copy)
        else:
            self.agent.receive([Instruction(operation=Operation.MODIFY, obj=copy)])
        assert self._rendered_now() == 0

    @rule(pick=_picks)
    def redeliver_the_same_object(self, pick):
        """The very object the view holds, delivered again, is no change:
        the next render visits nothing."""
        view = self.agent.logical_view
        if not view:
            return
        current = view[sorted(view)[pick % len(view)]]
        self._rendered_now()
        visited = self.agent.units_visited
        _write(self.agent, Operation.MODIFY, current)
        self.wrote = False
        self.agent.render()
        assert self.agent.units_visited == visited

    @rule(pick=_picks)
    def delete_and_re_add(self, pick):
        """The very same object, deleted and added back, moves to the end of
        the view: the render visits its units."""
        view = self.agent.logical_view
        if not view:
            return
        current = view[sorted(view)[pick % len(view)]]
        _write(self.agent, Operation.DELETE, current)
        _write(self.agent, Operation.ADD, current)

    @rule(
        pick=_picks,
        name=st.text(max_size=3),
        provides=st.frozensets(st.sampled_from(CONTRACT_UIDS)),
        consumes=st.frozensets(st.sampled_from(CONTRACT_UIDS)),
    )
    def edit_fields_no_rule_reads(self, pick, name, provides, consumes):
        """Rename any object, or rewire an EPG's contracts: a unit that
        survives keeps its key, so it is not rendered again."""
        view = self.agent.logical_view
        if not view:
            return
        current = view[sorted(view)[pick % len(view)]]
        changes = {"name": name}
        if isinstance(current, Epg):
            changes.update(provides=provides, consumes=consumes)
        edited = dataclasses.replace(current, **changes)
        self.agent.receive([Instruction(operation=Operation.MODIFY, obj=edited)])

    @rule(obj=_objects)
    def write_past_the_state_gate(self, obj):
        """An instruction applied whatever the agent's state."""
        _write(self.agent, Operation.ADD, obj)

    @rule()
    def delete_everything(self):
        for obj in list(self.agent.logical_view.values()):
            _write(self.agent, Operation.DELETE, obj)

    @rule(uid=st.sampled_from(UIDS), obj=_objects)
    def the_view_has_one_writer(self, uid, obj):
        """No one but the writers edits the view or the attachments."""
        agent = self.agent
        with pytest.raises(TypeError):
            agent.logical_view[uid] = obj
        with pytest.raises(TypeError):
            del agent.logical_view[uid]
        with pytest.raises(TypeError):
            agent.local_attachments["ep:0"] = "epg:0"
        for mapping in (agent.logical_view, agent.local_attachments):
            assert not any(
                hasattr(mapping, name)
                for name in ("pop", "popitem", "clear", "update", "setdefault")
            )

    # -- attachments --------------------------------------------------- #
    @rule(
        endpoint=st.sampled_from(ENDPOINT_UIDS),
        epg=st.sampled_from(EPG_UIDS + ("epg:ghost",)),
        elsewhere=st.booleans(),
    )
    def attach(self, endpoint, epg, elsewhere):
        self.agent.receive_attachments(
            [
                AttachEndpoint(
                    endpoint_uid=endpoint,
                    epg_uid=epg,
                    switch_uid="leaf-9" if elsewhere else SWITCH,
                )
            ]
        )

    @rule(pick=_picks)
    def move_an_endpoint_between_local_epgs(self, pick):
        attachments = self.agent.local_attachments
        local = sorted(set(attachments.values()))
        if len(local) < 2:
            return
        endpoint = sorted(attachments)[pick % len(attachments)]
        others = [epg for epg in local if epg != attachments[endpoint]]
        self.agent.receive_attachments(
            [
                AttachEndpoint(
                    endpoint_uid=endpoint,
                    epg_uid=others[pick % len(others)],
                    switch_uid=SWITCH,
                )
            ]
        )

    # -- agent faults -------------------------------------------------- #
    @rule(uid=st.sampled_from(UIDS), dropped=st.booleans())
    def buggy_drop(self, uid, dropped):
        if dropped:
            self.agent.buggy_dropped_objects.add(uid)
        else:
            self.agent.buggy_dropped_objects.discard(uid)

    @rule(after=st.integers(min_value=0, max_value=3))
    def crash_after(self, after):
        self.agent.crash_after = after

    @rule()
    def unresponsive(self):
        self.agent.state = AgentState.UNRESPONSIVE

    @rule()
    def restore(self):
        self.agent.state = AgentState.RUNNING
        self.agent.crash_after = None

    @rule(batch=_batches)
    def reset_and_redeliver(self, batch):
        """A reboot keeps nothing of the last render: the view it comes
        back to is rendered unit by unit, even where it equals the old."""
        view = list(self.agent.logical_view.values())
        attachments = dict(self.agent.local_attachments)
        dropped = set(self.agent.buggy_dropped_objects)
        self._rendered_now()
        self.agent.reset()
        self.in_step = False
        self.unit_keys = {}
        self.rendered_from = ([], {})
        assert not self.agent.logical_view and not self.agent.local_attachments
        assert self.agent.state is AgentState.RUNNING and self.agent.crash_after is None
        assert self.agent.buggy_dropped_objects == dropped
        for obj in view:
            _write(self.agent, Operation.ADD, obj)
        self.agent.receive_attachments(
            AttachEndpoint(endpoint_uid=endpoint, epg_uid=epg, switch_uid=SWITCH)
            for endpoint, epg in attachments.items()
        )
        _, units = reference_render(self.agent)
        reused = self.agent.units_reused
        assert self._rendered_now() == units
        assert self.agent.units_reused == reused
        self.deliver(batch)

    # -- the TCAM ------------------------------------------------------ #
    @rule(how=st.sampled_from(("remove", "remove_where", "wipe")), picks=st.lists(_picks, max_size=4))
    def lose_rules(self, how, picks):
        """Rules leave the TCAM behind the agent's back: one at a time, by
        predicate, or all at once."""
        tcam = self.switch.tcam
        if how == "wipe":
            if tcam.write(tcam.match_keys(), {})[0]:
                self.in_step = False
        elif how == "remove_where":
            ports = {pick % 1000 for pick in picks}
            if tcam.remove_where(lambda held: held.port in ports or held.port is None):
                self.in_step = False
        else:
            for pick in picks:
                keys = tcam.match_keys()
                if keys:
                    tcam.write([keys[pick % len(keys)]], {})
                    self.in_step = False

    @rule()
    def sync_tcam(self):
        """Same table, counters and faults as a fresh agent given the view;
        the delta written exactly when the TCAM held the last render."""
        fresh = _twin(self.agent, self.capacity, self.evict, self.switch.tcam.rules())
        assert fresh.tcam.match_keys() == self.switch.tcam.match_keys()
        logged = len(self.switch.fault_log)

        collector = TraceCollector()
        with activated(collector):
            counters = self.switch.sync_tcam()
        (sync,) = [span for span in collector.spans() if span.name == "fabric.sync_tcam"]
        reconcile = sync.attrs["reconcile"]
        assert reconcile == ("delta" if self.in_step else "full")
        self.in_step = not (counters["rejected"] or counters["evicted"])

        assert counters == fresh.sync_tcam()
        assert self.switch.tcam.match_keys() == fresh.tcam.match_keys()
        assert _as_dicts(self.switch.tcam.rules()) == _as_dicts(fresh.tcam.rules())
        raised = self.switch.fault_log.records()[logged:]
        assert _faults(raised) == _faults(fresh.fault_log.records())

    @rule(
        before=_batches,
        how=st.sampled_from(("remove", "remove_where", "wipe")),
        picks=st.lists(_picks, min_size=1, max_size=4),
        after=_batches,
    )
    def lose_rules_between_edits(self, before, how, picks, after):
        """Edit, sync, lose rules, edit, sync, edit, sync: the path goes
        from the delta to a full reconcile and back."""
        self.deliver(before)
        self.sync_tcam()
        self.lose_rules(how, picks)
        self.deliver(after)
        self.sync_tcam()
        self.deliver(before)
        self.sync_tcam()

    # -- the render itself --------------------------------------------- #
    @rule(pick=_picks)
    def edit_a_handed_out_render(self, pick):
        """A caller cannot edit the render it was handed: the next render
        (the invariant's) is whole."""
        self.agent.render()
        rules = self.agent.rendered_rules()
        with pytest.raises(TypeError):
            rules[(0, 0, 0, "tcp", 1, "allow")] = TcamRule(0, 0, 0, "tcp", 1)
        if rules:
            key = sorted(rules, key=repr)[pick % len(rules)]
            with pytest.raises(TypeError):
                del rules[key]
        assert not hasattr(rules, "clear")

    @invariant()
    def render_equals_the_reference(self):
        agent = getattr(self, "agent", None)
        if agent is None:
            return
        expected, units = reference_render(agent)
        walked = agent.units_rendered + agent.units_reused
        agent.render()
        rendered = agent.rendered_rules()
        assert list(rendered) == list(expected)
        assert _as_dicts(rendered.values()) == _as_dicts(expected.values())
        assert agent.units_rendered + agent.units_reused - walked == units
        # Nothing moved since: every unit is reused, rule objects included.
        again_rendered = agent.units_rendered
        agent.render()
        again = agent.rendered_rules()
        assert agent.units_rendered == again_rendered
        assert list(again) == list(rendered)
        assert all(map(lambda a, b: a is b, again.values(), rendered.values()))


AgentRenderMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None, derandomize=True
)
TestAgentRenderMachine = AgentRenderMachine.TestCase
