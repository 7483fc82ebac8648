"""The agent's memoised render == a from-scratch render, under any view edit.

``SwitchAgent.desired_rules`` reuses a ``(contract, provider, consumer)``
unit's rules while the unit's inputs compare equal to the ones they were
rendered from.  A state machine feeds one agent instruction batches — adds,
modifies (some carrying an equal but distinct object) and deletes of VRFs,
filters, contracts and EPGs — buggy drops, attachment changes, crashes
mid-batch, direct edits of its view and ``reset()``, and after every step
holds it to two references kept here, not in ``src/``:

* :func:`reference_render`, a literal transcription of the whole-view loop
  the memo replaced: same keys, same order, same rule (``to_dict()``,
  provenance included) — and a repeated render re-renders nothing;
* a fresh agent handed the same view: ``sync_tcam`` on a capacity-limited
  TCAM, evicting or not, leaves the same table in the same order, returns
  the same counters and logs the same faults as on a fresh agent given a
  copy of the table.

Objects are drawn from a handful of uids with colliding VRF scopes and EPG
class ids, so duplicate match keys inside a unit and across units — where
first provenance wins — are common.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.clock import LogicalClock
from repro.fabric import AgentState, Switch, SwitchAgent, TcamTable
from repro.policy.objects import Contract, Epg, Filter, FilterEntry, Vrf
from repro.protocol import AttachEndpoint, Instruction, Operation
from repro.rules import MatchKey, TcamRule, rules_for_pair_entry

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
    local_epgs = agent.local_epg_uids()
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


def _table(capacity: int, evict: bool, rules) -> TcamTable:
    table = TcamTable(capacity=capacity, evict_on_overflow=evict)
    for held in rules:
        table.install(held)
    return table


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
        self.switch.receive_deployment(
            [Instruction(operation=Operation.ADD, obj=obj) for obj in baseline],
            [
                AttachEndpoint(endpoint_uid="ep:0", epg_uid="epg:0", switch_uid=SWITCH),
                AttachEndpoint(endpoint_uid="ep:1", epg_uid="epg:2", switch_uid=SWITCH),
            ],
        )

    def _rendered_now(self) -> int:
        """Bring the memo up to the current view; how many units it rendered."""
        before = self.agent.units_rendered
        self.agent.desired_rules()
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

    @rule(pick=_picks)
    def modify_with_an_equal_copy(self, pick):
        """An equal but distinct object re-renders nothing."""
        view = self.agent.logical_view
        if not view:
            return
        current = view[sorted(view)[pick % len(view)]]
        copy = dataclasses.replace(current)
        assert copy == current and copy is not current
        self._rendered_now()
        self.agent.receive([Instruction(operation=Operation.MODIFY, obj=copy)])
        assert self._rendered_now() == 0

    @rule(obj=_objects)
    def write_view_directly(self, obj):
        self.agent.logical_view[obj.uid] = obj

    @rule()
    def clear_view_directly(self):
        self.agent.logical_view.clear()

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

    @rule(endpoint=st.sampled_from(ENDPOINT_UIDS))
    def detach(self, endpoint):
        self.agent.local_attachments.pop(endpoint, None)

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
        view = dict(self.agent.logical_view)
        attachments = dict(self.agent.local_attachments)
        dropped = set(self.agent.buggy_dropped_objects)
        self._rendered_now()
        self.agent.reset()
        assert not self.agent.logical_view and not self.agent.local_attachments
        assert self.agent.state is AgentState.RUNNING and self.agent.crash_after is None
        assert self.agent.buggy_dropped_objects == dropped
        self.agent.logical_view.update(view)
        self.agent.local_attachments.update(attachments)
        _, units = reference_render(self.agent)
        reused = self.agent.units_reused
        assert self._rendered_now() == units
        assert self.agent.units_reused == reused
        self.deliver(batch)

    # -- the TCAM ------------------------------------------------------ #
    @rule(picks=st.lists(_picks, max_size=4))
    def lose_rules(self, picks):
        tcam = self.switch.tcam
        for pick in picks:
            keys = tcam.match_keys()
            if keys:
                tcam.remove(keys[pick % len(keys)])

    @rule()
    def sync_tcam(self):
        """Same table, counters and faults as a fresh agent given the view."""
        fresh = Switch(
            uid=SWITCH,
            tcam=_table(self.capacity, self.evict, self.switch.tcam.rules()),
            clock=LogicalClock(),
        )
        fresh.agent.logical_view.update(self.agent.logical_view)
        fresh.agent.local_attachments.update(self.agent.local_attachments)
        assert fresh.tcam.match_keys() == self.switch.tcam.match_keys()
        logged = len(self.switch.fault_log)

        counters = self.switch.sync_tcam()

        assert counters == fresh.sync_tcam()
        assert self.switch.tcam.match_keys() == fresh.tcam.match_keys()
        assert _as_dicts(self.switch.tcam.rules()) == _as_dicts(fresh.tcam.rules())
        raised = self.switch.fault_log.records()[logged:]
        assert _faults(raised) == _faults(fresh.fault_log.records())

    # -- the render itself --------------------------------------------- #
    @invariant()
    def render_equals_the_reference(self):
        agent = getattr(self, "agent", None)
        if agent is None:
            return
        expected, units = reference_render(agent)
        walked = agent.units_rendered + agent.units_reused
        rendered = agent.desired_rules()
        assert list(rendered) == list(expected)
        assert _as_dicts(rendered.values()) == _as_dicts(expected.values())
        assert agent.units_rendered + agent.units_reused - walked == units
        # Nothing moved since: every unit is reused, rule objects included.
        again_rendered = agent.units_rendered
        again = agent.desired_rules()
        assert agent.units_rendered == again_rendered
        assert list(again) == list(rendered)
        assert all(map(lambda a, b: a is b, again.values(), rendered.values()))


AgentRenderMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None, derandomize=True
)
TestAgentRenderMachine = AgentRenderMachine.TestCase
