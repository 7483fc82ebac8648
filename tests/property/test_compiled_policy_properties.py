"""Cached compile == from-scratch compile, under arbitrary policy edits.

The gate of ROADMAP item 3: whatever sequence of adds, modifies and deletes
reaches the policy — through ``Controller.*_object`` or written straight
into the tenant tables, endpoint moves included — the controller's compiled
policy must hand out, per switch, exactly the rules (and order) of
``compile_logical_rules(policy)``; a parallel audit over it must be
byte-identical to ``check_network`` over that fresh compile; and its
semantic fingerprint must equal the BDD oracle's full sweep.

The online monitor reads the same compile, so the same edits — written
straight into the tenant tables, with no bus event to announce them — must
also reach an :class:`IncrementalChecker` by its next ``refresh()``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import Controller
from repro.controller.compiler import compile_logical_rules
from repro.core import ScoutSystem
from repro.online import IncrementalChecker
from repro.policy.objects import Endpoint, Epg, Filter, FilterEntry
from repro.verify import EquivalenceChecker
from repro.workloads import generate_workload, small_profile

pytestmark = pytest.mark.slow

KINDS = (
    "filter-entry",
    "filter-delete",
    "filter-add",
    "vrf-scope",
    "epg-consume",
    "epg-delete",
    "contract-delete",
    "endpoint-move",
    "endpoint-delete",
    "endpoint-add",
    "redeploy",
    "rule-loss",
)

#: (kind, two picks resolved against the sorted candidates at apply time,
#: and whether the edit bypasses the controller).
_ops = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


def _pick(candidates, draw):
    return candidates[draw % len(candidates)] if candidates else None


def _write(controller, tenant, table, obj, direct, new):
    """Add or replace ``obj``: behind the controller's back, or through it."""
    if direct:
        table[obj.uid] = obj
    elif new:
        controller.add_object(tenant.name, obj)
    else:
        controller.modify_object(tenant.name, obj)


def _delete(controller, tenant, table, obj, direct):
    if direct:
        del table[obj.uid]
    else:
        controller.delete_object(tenant.name, obj)


def _apply(controller, serial, op):
    kind, a, b, direct = op
    (tenant,) = controller.policy.tenants.values()
    leaves = sorted(controller.fabric.leaf_uids())
    filters = sorted(tenant.filters.values(), key=lambda o: o.uid)
    contracts = sorted(tenant.contracts.values(), key=lambda o: o.uid)
    epgs = sorted(tenant.epgs.values(), key=lambda o: o.uid)
    endpoints = sorted(tenant.endpoints.values(), key=lambda o: o.uid)
    if kind == "filter-entry" and filters:
        target = _pick(filters, a)
        entry = FilterEntry(protocol=("tcp", "udp")[b % 2], port=40_000 + b % 50)
        entries = (
            target.entries[1:] if entry in target.entries else target.entries + (entry,)
        )
        edited = dataclasses.replace(target, entries=entries)
        _write(controller, tenant, tenant.filters, edited, direct, new=False)
    elif kind == "filter-delete" and filters:
        _delete(controller, tenant, tenant.filters, _pick(filters, a), direct)
    elif kind == "filter-add" and contracts:
        added = Filter(
            uid=f"filter:prop/{serial}",
            name=f"prop-{serial}",
            entries=(FilterEntry(protocol="tcp", port=41_000 + b % 50),),
        )
        _write(controller, tenant, tenant.filters, added, direct, new=True)
        contract = _pick(contracts, a)
        grown = dataclasses.replace(
            contract, filter_uids=contract.filter_uids + (added.uid,)
        )
        _write(controller, tenant, tenant.contracts, grown, direct, new=False)
    elif kind == "vrf-scope":
        target = _pick(sorted(tenant.vrfs.values(), key=lambda o: o.uid), a)
        rescoped = dataclasses.replace(target, scope_id=500 + b % 20)
        _write(controller, tenant, tenant.vrfs, rescoped, direct, new=False)
    elif kind == "epg-consume" and epgs and contracts:
        target = _pick(epgs, a)
        contract = _pick(contracts, b)
        consumes = target.consumes ^ {contract.uid}
        edited = Epg(
            uid=target.uid,
            name=target.name,
            vrf_uid=target.vrf_uid,
            epg_id=target.epg_id,
            provides=target.provides,
            consumes=consumes,
        )
        _write(controller, tenant, tenant.epgs, edited, direct, new=False)
    elif kind == "epg-delete" and len(epgs) > 4:
        _delete(controller, tenant, tenant.epgs, _pick(epgs, a), direct)
    elif kind == "contract-delete" and len(contracts) > 2:
        _delete(controller, tenant, tenant.contracts, _pick(contracts, a), direct)
    elif kind == "endpoint-move" and endpoints:
        target = _pick(endpoints, a)
        moved = target.attached_to(_pick(leaves, b))
        _write(controller, tenant, tenant.endpoints, moved, direct, new=False)
    elif kind == "endpoint-delete" and len(endpoints) > 4:
        _delete(controller, tenant, tenant.endpoints, _pick(endpoints, a), direct)
    elif kind == "endpoint-add" and epgs:
        added = Endpoint(
            uid=f"endpoint:prop/{serial}",
            name=f"prop-ep-{serial}",
            epg_uid=_pick(epgs, a).uid,
            switch_uid=_pick(leaves, b),
        )
        _write(controller, tenant, tenant.endpoints, added, direct, new=True)
    elif kind == "redeploy":
        controller.deploy(record_initial_changes=False)
    elif kind == "rule-loss":
        tcam = controller.fabric.switch(_pick(leaves, a)).tcam
        keys = tcam.match_keys()
        if keys:
            tcam.write([_pick(keys, b)], {})


def _assert_cached_compile_is_the_fresh_compile(controller):
    fresh = compile_logical_rules(controller.policy)
    cached = controller.logical_rules()
    assert list(cached) == list(fresh)
    for switch_uid, rules in fresh.items():
        assert list(cached[switch_uid]) == rules, switch_uid
    return fresh


class TestCompiledPolicyProperties:
    @given(ops=_ops)
    @settings(max_examples=40, deadline=None)
    def test_cached_compile_and_parallel_audit_match_from_scratch(self, ops):
        workload = generate_workload(small_profile())
        controller = Controller(workload.policy, workload.fabric, validate=False)
        controller.deploy()
        with ScoutSystem(controller) as system:
            _assert_cached_compile_is_the_fresh_compile(controller)
            for serial, op in enumerate(ops):
                _apply(controller, serial, op)
                # Every step compiles on top of the previous step's memo.
                fresh = _assert_cached_compile_is_the_fresh_compile(controller)
            reference = EquivalenceChecker().check_network(
                fresh, controller.collect_deployed_rules()
            )
            audit = system.check(parallel=True, max_workers=2)
            assert audit.fingerprint() == reference.fingerprint()
            localized = system.localize(parallel=True, max_workers=2)
            assert localized.equivalence.fingerprint() == reference.fingerprint()
            oracle = system.check(engine="bdd")
            assert audit.semantic_fingerprint() == oracle.semantic_fingerprint()
            # The sweep really split: what was not dispatched was proven.
            stats = system.stats()
            # (two parallel sweeps and the serial bdd one, which dispatches all)
            assert stats["identity_proofs"] + stats["dispatched"] == 3 * len(
                reference.results
            )

    @given(ops=_ops)
    @settings(max_examples=15, deadline=None)
    def test_audits_interleaved_with_edits_never_serve_a_stale_compile(self, ops):
        """An audit between any two edits sees exactly the policy of that moment."""
        workload = generate_workload(small_profile())
        controller = Controller(workload.policy, workload.fabric, validate=False)
        controller.deploy()
        with ScoutSystem(controller) as system:
            for serial, op in enumerate(ops):
                _apply(controller, serial, op)
                reference = EquivalenceChecker().check_network(
                    compile_logical_rules(controller.policy),
                    controller.collect_deployed_rules(),
                )
                assert (
                    system.check(parallel=True, max_workers=2).fingerprint()
                    == reference.fingerprint()
                )


class TestMonitorSeesUnannouncedEdits:
    @given(ops=_ops)
    @settings(max_examples=40, deadline=None)
    def test_refresh_after_edits_no_event_announced_equals_a_fresh_check(self, ops):
        """The defining property of reading L from the controller: the
        checker is told about TCAM writes (the bus would carry those) and
        about *no* policy edit, and still agrees with a from-scratch check
        after every step."""
        workload = generate_workload(small_profile())
        controller = Controller(workload.policy, workload.fabric, validate=False)
        controller.deploy()
        checker = IncrementalChecker(controller)
        checker.bootstrap()
        for serial, (kind, a, b, _) in enumerate(ops):
            _apply(controller, serial, (kind, a, b, True))
            if kind in ("redeploy", "rule-loss"):
                for switch_uid in controller.fabric.leaf_uids():
                    checker.note_switch_change(switch_uid)
            checker.refresh()
            reference = EquivalenceChecker().check_network(
                compile_logical_rules(controller.policy),
                controller.collect_deployed_rules(),
            )
            assert (
                checker.report().semantic_fingerprint()
                == reference.semantic_fingerprint()
            ), (serial, kind)
        assert checker.full_checks == 1
