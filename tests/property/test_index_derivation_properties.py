"""A derived index == a fresh one, whatever the edits.

The controller derives every index from the one it holds
(:meth:`PolicyIndex.derive`): it names the EPGs the difference between the
held and the live object tables can affect and recomputes only their pairs,
and the compile that follows compares only the pairs that derivation moved.
A state machine edits a two-tenant policy — every table, through
``Controller.*_object`` and straight into the tenant tables — with the cases
the derivation has to get right: EPGs moving VRF, contracts' filter lists
edited, filters referenced before they exist, cross-VRF and self
provide/consume, endpoints moving and detaching, the same frozen object put
back, and an index requested between two edits with no compile.  After
every step the controller is held to references kept here, not in ``src/``:

* :func:`reference_maps`, a literal transcription of the from-scratch build
  the derivation replaced, for every public lookup of the held index —
  ``pairs``, ``contracts_for_pair``, ``risks_for_pair`` (order included),
  ``pairs_for_object``, ``switches_for_*``, ``pairs_on_switch`` (order
  included), ``all_switches``, ``object_types`` and ``object_tables``;
* ``compile_logical_rules`` for ``logical_rules()``, and a full-scan
  :meth:`CompiledRules.build` for what the compile re-rendered and which
  leaves kept their sequence object;
* a fresh index's risk structures for every structure the held index
  carried over from its source.
"""

from __future__ import annotations

from collections import defaultdict
from types import SimpleNamespace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Controller
from repro.controller.compiler import CompiledRules, compile_logical_rules
from repro.fabric import Fabric
from repro.policy.graph import PolicyIndex, object_tables
from repro.policy.objects import (
    Contract,
    Endpoint,
    Epg,
    EpgPair,
    Filter,
    FilterEntry,
    ObjectType,
    Vrf,
)
from repro.policy.tenant import NetworkPolicy, Tenant
from repro.risk import build_controller_risk_model, build_switch_risk_model

pytestmark = pytest.mark.slow

TENANTS = ("t0", "t1")
LEAVES = ("leaf-1", "leaf-2", "leaf-3")
VRF_UIDS = ("vrf:a", "vrf:b")
EPG_UIDS = ("epg:0", "epg:1", "epg:2", "epg:3", "epg:4")
CONTRACT_UIDS = ("contract:0", "contract:1", "contract:2")
FILTER_UIDS = ("filter:0", "filter:1", "filter:2", "filter:3")
ENDPOINT_UIDS = ("ep:0", "ep:1", "ep:2", "ep:3", "ep:4", "ep:5")
ENTRIES = (FilterEntry("tcp", 80), FilterEntry("tcp", 443), FilterEntry("udp", 53))
#: Table name per object kind, and every uid the machine can write.
TABLES = {
    "vrf": ("vrfs", VRF_UIDS),
    "epg": ("epgs", EPG_UIDS),
    "contract": ("contracts", CONTRACT_UIDS),
    "filter": ("filters", FILTER_UIDS),
    "endpoint": ("endpoints", ENDPOINT_UIDS),
}
UIDS = VRF_UIDS + EPG_UIDS + CONTRACT_UIDS + FILTER_UIDS + LEAVES


# ---------------------------------------------------------------------- #
# The reference
# ---------------------------------------------------------------------- #
def reference_maps(tables):
    """The from-scratch index build before derivation, line for line."""
    vrfs, epgs, contracts, filters, endpoints = (
        {obj.uid: obj for obj in table} for table in tables
    )
    providers = defaultdict(set)
    consumers = defaultdict(set)
    for epg in epgs.values():
        for contract_uid in epg.provides:
            providers[contract_uid].add(epg.uid)
        for contract_uid in epg.consumes:
            consumers[contract_uid].add(epg.uid)

    pair_contracts = defaultdict(set)
    for contract_uid in contracts:
        for provider in providers.get(contract_uid, ()):
            for consumer in consumers.get(contract_uid, ()):
                if provider == consumer:
                    continue
                if epgs[provider].vrf_uid != epgs[consumer].vrf_uid:
                    continue
                pair_contracts[EpgPair(provider, consumer)].add(contract_uid)
    pairs = sorted(pair_contracts)
    pair_contracts = {pair: sorted(uids) for pair, uids in pair_contracts.items()}

    pair_risks = {}
    object_pairs = defaultdict(set)
    for pair, contract_uids in pair_contracts.items():
        risks = []
        seen = set()

        def _add(uid):
            if uid and uid not in seen:
                seen.add(uid)
                risks.append(uid)

        epg_a = epgs[pair.first]
        epg_b = epgs[pair.second]
        _add(epg_a.vrf_uid)
        _add(epg_b.vrf_uid)
        _add(epg_a.uid)
        _add(epg_b.uid)
        for contract_uid in contract_uids:
            _add(contract_uid)
            for filter_uid in contracts[contract_uid].filter_uids:
                if filter_uid in filters:
                    _add(filter_uid)
        pair_risks[pair] = risks
        for uid in risks:
            object_pairs[uid].add(pair)

    epg_switches = defaultdict(set)
    for endpoint in endpoints.values():
        if endpoint.switch_uid is not None:
            epg_switches[endpoint.epg_uid].add(endpoint.switch_uid)
    epg_switches = {uid: sorted(switches) for uid, switches in epg_switches.items()}

    pair_switches = {}
    switch_pairs = defaultdict(list)
    for pair in pairs:
        switches = set(epg_switches.get(pair.first, ()))
        switches.update(epg_switches.get(pair.second, ()))
        pair_switches[pair] = sorted(switches)
        for switch_uid in pair_switches[pair]:
            switch_pairs[switch_uid].append(pair)
            object_pairs[switch_uid].add(pair)

    types = {uid: ObjectType.VRF for uid in vrfs}
    types.update((uid, ObjectType.EPG) for uid in epgs)
    types.update((uid, ObjectType.CONTRACT) for uid in contracts)
    types.update((uid, ObjectType.FILTER) for uid in filters)
    types.update((uid, ObjectType.SWITCH) for uid in switch_pairs)
    return SimpleNamespace(
        pairs=pairs,
        pair_contracts=pair_contracts,
        pair_risks=pair_risks,
        pair_switches=pair_switches,
        object_pairs=object_pairs,
        epg_switches=epg_switches,
        switch_pairs=switch_pairs,
        types=types,
    )


def structure(model):
    """What a risk model's structure is, order included."""
    return (
        model.elements(),
        model.risks(),
        [sorted(model.risks_for_element(element)) for element in model.elements()],
    )


def compile_or_key_error(compile):
    """``compile()``, or ``KeyError`` when an EPG names a missing VRF."""
    try:
        return {uid: list(rules) for uid, rules in compile().items()}
    except KeyError:
        return KeyError


# ---------------------------------------------------------------------- #
# The machine
# ---------------------------------------------------------------------- #
def seed_policy(homes):
    """Every object but ``filter:3`` (which ``contract:1`` already lists),
    each in the tenant ``homes`` names: four pairs over two VRFs, an EPG
    providing what it consumes and contracts whose parties cross VRFs."""
    #: EPG -> (VRF, contracts it provides, contracts it consumes)
    wiring = {
        "epg:0": ("vrf:a", "01", ""),
        "epg:1": ("vrf:a", "2", "0"),
        "epg:2": ("vrf:a", "", "012"),
        "epg:3": ("vrf:b", "12", "1"),
        "epg:4": ("vrf:b", "", "12"),
    }
    objects = [
        Vrf(uid="vrf:a", name="a", scope_id=1),
        Vrf(uid="vrf:b", name="b", scope_id=2),
    ]
    objects += [
        Epg(
            uid=uid,
            name=uid,
            vrf_uid=vrf,
            epg_id=n % 3 + 1,
            provides={f"contract:{c}" for c in provides},
            consumes={f"contract:{c}" for c in consumes},
        )
        for n, (uid, (vrf, provides, consumes)) in enumerate(wiring.items())
    ]
    objects += [
        Contract(uid="contract:0", name="0", filter_uids=("filter:0", "filter:1")),
        Contract(uid="contract:1", name="1", filter_uids=("filter:2", "filter:3")),
        Contract(uid="contract:2", name="2", filter_uids=("filter:0",)),
    ]
    objects += [
        Filter(uid=uid, name=uid, entries=(entry,))
        for uid, entry in zip(FILTER_UIDS, ENTRIES)
    ]
    objects += [
        Endpoint(uid=uid, name=uid, epg_uid=EPG_UIDS[n % 5], switch_uid=LEAVES[n % 3])
        for n, uid in enumerate(ENDPOINT_UIDS)
    ]
    tenants = [Tenant(name) for name in TENANTS]
    for obj, home in zip(objects, homes):
        table = TABLES[obj.object_type.value][0]
        getattr(tenants[home], table)[obj.uid] = obj
    return NetworkPolicy(tenants)


class IndexDerivationMachine(RuleBasedStateMachine):
    @initialize(homes=st.lists(st.integers(0, 1), min_size=19, max_size=19))
    def setup(self, homes):
        policy = seed_policy(homes)
        fabric = Fabric(num_leaves=len(LEAVES))
        self.controller = Controller(policy, fabric, validate=False)
        self.undo_log = []
        self.pairs_seen = set()
        self.compile_next = True

    def _holder(self, kind, uid):
        table = TABLES[kind][0]
        for tenant in self.controller.policy.tenants.values():
            if uid in getattr(tenant, table):
                return tenant
        return None

    def _write(self, kind, obj, tenant_index, direct):
        """Add or replace ``obj`` — in the tenant holding its uid, if any."""
        tenant = self._holder(kind, obj.uid)
        if tenant is None:
            tenant = self.controller.policy.tenants[TENANTS[tenant_index]]
        table = getattr(tenant, TABLES[kind][0])
        previous = table.get(obj.uid)
        self.undo_log.append((table, obj.uid, previous))
        if direct:
            table[obj.uid] = obj
        elif previous is None:
            self.controller.add_object(tenant.name, obj)
        else:
            self.controller.modify_object(tenant.name, obj)

    @rule(
        uid=st.sampled_from(VRF_UIDS),
        scope=st.integers(1, 3),
        tenant=st.integers(0, 1),
        direct=st.booleans(),
    )
    def write_vrf(self, uid, scope, tenant, direct):
        self._write("vrf", Vrf(uid=uid, name=uid, scope_id=scope), tenant, direct)

    @rule(
        uid=st.sampled_from(EPG_UIDS),
        vrf=st.sampled_from(VRF_UIDS),
        epg_id=st.integers(1, 3),
        provides=st.frozensets(st.sampled_from(CONTRACT_UIDS), max_size=2),
        consumes=st.frozensets(st.sampled_from(CONTRACT_UIDS), max_size=2),
        tenant=st.integers(0, 1),
        direct=st.booleans(),
    )
    def write_epg(self, uid, vrf, epg_id, provides, consumes, tenant, direct):
        epg = Epg(
            uid=uid,
            name=uid,
            vrf_uid=vrf,
            epg_id=epg_id,
            provides=provides,
            consumes=consumes,
        )
        self._write("epg", epg, tenant, direct)

    @rule(
        uid=st.sampled_from(CONTRACT_UIDS),
        filters=st.lists(st.sampled_from(FILTER_UIDS), max_size=3),
        tenant=st.integers(0, 1),
        direct=st.booleans(),
    )
    def write_contract(self, uid, filters, tenant, direct):
        contract = Contract(uid=uid, name=uid, filter_uids=tuple(filters))
        self._write("contract", contract, tenant, direct)

    @rule(
        uid=st.sampled_from(FILTER_UIDS),
        entries=st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=2),
        tenant=st.integers(0, 1),
        direct=st.booleans(),
    )
    def write_filter(self, uid, entries, tenant, direct):
        flt = Filter(uid=uid, name=uid, entries=tuple(entries))
        self._write("filter", flt, tenant, direct)

    @rule(
        uid=st.sampled_from(ENDPOINT_UIDS),
        epg=st.sampled_from(EPG_UIDS),
        leaf=st.sampled_from((None,) + LEAVES),
        tenant=st.integers(0, 1),
        direct=st.booleans(),
    )
    def write_endpoint(self, uid, epg, leaf, tenant, direct):
        endpoint = Endpoint(uid=uid, name=uid, epg_uid=epg, switch_uid=leaf)
        self._write("endpoint", endpoint, tenant, direct)

    @rule(
        kind=st.sampled_from(sorted(TABLES)),
        pick=st.integers(0, 9),
        direct=st.booleans(),
    )
    def delete(self, kind, pick, direct):
        uids = TABLES[kind][1]
        uid = uids[pick % len(uids)]
        tenant = self._holder(kind, uid)
        if tenant is None:
            return
        table = getattr(tenant, TABLES[kind][0])
        previous = table[uid]
        self.undo_log.append((table, uid, previous))
        if direct:
            del table[uid]
        else:
            self.controller.delete_object(tenant.name, previous)

    @precondition(lambda self: self.undo_log)
    @rule()
    def undo(self):
        """The last edit taken back: the very object it replaced, put back."""
        table, uid, previous = self.undo_log.pop()
        if previous is None:
            del table[uid]
        else:
            table[uid] = previous

    @rule()
    def request_the_index_only(self):
        """An index derived with no compile after it: the next compile's
        previous rules are not of the index its own was derived from."""
        self.controller.build_index()
        self.compile_next = False

    # ------------------------------------------------------------------ #
    @invariant()
    def the_held_index_is_a_fresh_one(self):
        index = self.controller.build_index()
        tables = object_tables(self.controller.policy)
        ref = reference_maps(tables)
        assert index.object_tables() == tables
        assert index.pairs == ref.pairs
        self.pairs_seen.update(ref.pairs)
        for pair in self.pairs_seen:
            assert index.contracts_for_pair(pair) == ref.pair_contracts.get(pair, [])
            assert index.risks_for_pair(pair) == ref.pair_risks.get(pair, [])
            assert index.switches_for_pair(pair) == ref.pair_switches.get(pair, [])
        for uid in UIDS:
            assert index.pairs_for_object(uid) == sorted(ref.object_pairs.get(uid, ()))
        for uid in EPG_UIDS:
            assert index.switches_for_epg(uid) == ref.epg_switches.get(uid, [])
        for leaf in LEAVES:
            assert index.pairs_on_switch(leaf) == ref.switch_pairs.get(leaf, [])
        assert index.all_switches() == sorted(ref.switch_pairs)
        assert dict(index.object_types()) == ref.types

    @invariant()
    def the_compile_is_the_full_scans(self):
        if not self.compile_next:
            self.compile_next = True
            return
        controller = self.controller
        held = controller._compiled
        previous = held.rules if held is not None else None
        cached = compile_or_key_error(controller.logical_rules)
        fresh = compile_or_key_error(lambda: compile_logical_rules(controller.policy))
        assert cached == fresh
        compiled = controller._compiled.rules
        if cached is KeyError or previous is None or compiled is previous:
            return
        scan = CompiledRules.build(PolicyIndex(controller.policy), previous)
        assert compiled.pairs_recompiled == scan.pairs_recompiled
        assert compiled.switches_reassembled == scan.switches_reassembled
        assert compiled.pairs_compared <= scan.pairs_compared
        for uid, sequence in compiled.by_switch.items():
            kept = previous.by_switch.get(uid)
            assert (sequence is kept) == (scan.by_switch[uid] is kept)

    @invariant()
    def every_carried_risk_structure_is_a_fresh_one(self):
        """Checks the structures the index carried, then builds every one on
        it, for the next derivation to carry or drop."""
        policy = self.controller.policy
        index = self.controller.build_index()
        fresh = PolicyIndex(policy)
        for include_switch_risks in (True, False):
            model = build_controller_risk_model(
                policy, index=index, include_switch_risks=include_switch_risks
            )
            expected = build_controller_risk_model(
                policy, index=fresh, include_switch_risks=include_switch_risks
            )
            assert structure(model) == structure(expected)
        for leaf in LEAVES:
            model = build_switch_risk_model(index, leaf)
            assert structure(model) == structure(build_switch_risk_model(fresh, leaf))


IndexDerivationMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=30, deadline=None, derandomize=True
)
TestIndexDerivationMachine = IndexDerivationMachine.TestCase
