"""End-to-end tracing through the real pipeline: serial, parallel, online.

These tests deploy the small workload and assert that the spans a
``TraceCollector`` captures describe the actual execution: the serial
check hits the BDD verifier per switch, the parallel check ships worker
spans across the process boundary and re-parents them under the dispatch
span, and the incremental refresh records its blast radius.
"""

from __future__ import annotations

import dataclasses

import pytest

from oracles import failed_edges, program_counters
from repro.controller.controller import Controller
from repro.core import ScoutSystem
from repro.obs import (
    TraceCollector,
    activated,
    attribution,
    parallel_stage_breakdown,
)
from repro.online import IncrementalChecker
from repro.parallel.memo import reset_worker_cache
from repro.policy.objects import FilterEntry
from repro.rules import TcamRule
from repro.workloads import small_profile
from repro.workloads.generator import generate_workload


@pytest.fixture(scope="module")
def system():
    workload = generate_workload(small_profile())
    controller = Controller(workload.policy, workload.fabric)
    controller.deploy()
    return ScoutSystem(controller)


@pytest.fixture(scope="module")
def degraded_system():
    """The same fabric with one rule gone from every leaf.

    A parallel check proves healthy switches equivalent in the calling
    process; only degraded ones reach a shard, so the worker-path tests
    degrade them all.
    """
    workload = generate_workload(small_profile())
    controller = Controller(workload.policy, workload.fabric)
    controller.deploy()
    for switch in workload.fabric.switches.values():
        switch.tcam.write([switch.tcam.match_keys()[0]], {})
    return ScoutSystem(controller)


class TestTracedCheck:
    def test_serial_check_records_pipeline_spans(self, degraded_system):
        system = ScoutSystem(degraded_system.controller)
        collector = TraceCollector()
        report = system.check(trace=collector)
        assert not report.equivalent
        names = {recorded.name for recorded in collector.spans()}
        # A system's first audit is its held checker's bootstrap sweep.
        assert {
            "check.compile_logical",
            "delta.bootstrap",
            "check.switch",
            "verify.ap.build",
        } <= names
        switches = len(system.controller.fabric.switches)
        checks = [s for s in collector.spans() if s.name == "check.switch"]
        assert len(checks) == switches
        assert all(s.counters["delta_checks"] == 1 for s in checks)
        # Rules lost, none gained: L - T alone settles T - L.
        assert all(s.counters["key_passes"] == 1 for s in checks)
        # Engine counters surfaced on the build spans (the oracle's too):
        # one exact rule gone from a leaf decides that rule's triple on its
        # keys, with no region built.
        builds = [s for s in collector.spans() if s.name == "verify.ap.build"]
        assert len(builds) == switches
        for build in builds:
            assert build.counters["atoms"] > 0
            assert build.counters["decided_triples"] == 1
            assert build.counters["touched_triples"] == 0
            assert build.counters["scoped_rules"] == 0
        oracle = TraceCollector()
        system.check(trace=oracle, engine="bdd")
        builds = [s for s in oracle.spans() if s.name == "verify.bdd.build"]
        assert builds and all(s.counters.get("apply_ops", 0) > 0 for s in builds)
        # The report carries its trace.
        assert report.trace is collector

    def test_a_lost_rule_beside_a_wildcard_scopes_regions_to_its_triple(self):
        """A leaf whose policy holds a wildcard rule: losing a rule of that
        rule's triple builds regions for that triple alone."""
        workload = generate_workload(small_profile())
        controller = Controller(workload.policy, workload.fabric)
        index = controller.build_index()
        target = next(
            f for f in workload.policy.filters() if index.pairs_for_object(f.uid)
        )
        widened = dataclasses.replace(
            target, entries=target.entries + (FilterEntry(protocol="udp", port=None),)
        )
        controller.modify_object(
            workload.policy.tenant_of(target.uid).name, widened, detail="trace test"
        )
        controller.deploy()
        logical = controller.logical_rules()
        leaf, wildcard = next(
            (uid, rule)
            for uid, rules in sorted(logical.items())
            for rule in rules
            if rule.port is None
        )
        tcam = workload.fabric.switches[leaf].tcam
        # A rule of the wildcard's triple that the wildcard does not cover.
        lost = next(
            key
            for key in tcam.match_keys()
            if key[:3] == wildcard.match_key()[:3] and key[3] != "udp"
        )
        tcam.write([lost], {})
        system = ScoutSystem(controller)
        collector = TraceCollector()
        result = system.check(trace=collector).results[leaf]
        assert [rule.match_key() for rule in result.missing_rules] == [lost]
        (build,) = [s for s in collector.spans() if s.name == "verify.ap.build"]
        assert build.attrs["switch"] == leaf
        assert build.counters["decided_triples"] == 0
        assert build.counters["touched_triples"] == 1
        assert 0 < build.counters["scoped_rules"] < build.counters["rules"]

    def test_healthy_serial_check_never_builds_atoms(self, system):
        before = system.stats()
        collector = TraceCollector()
        assert system.check(trace=collector).equivalent
        switches = len(system.controller.fabric.switches)
        checks = [s for s in collector.spans() if s.name == "check.switch"]
        assert len(checks) == switches
        assert all("delta_checks" not in s.counters for s in checks)
        assert all(s.counters["key_passes"] == 1 for s in checks)
        assert not [s for s in collector.spans() if s.name == "verify.ap.build"]
        # The serial path counts its identity proofs like the parallel one.
        after = system.stats()
        assert after["identity_proofs"] - before["identity_proofs"] == switches
        assert after["dispatched"] == before["dispatched"]

    def test_a_repeat_audit_reuses_the_position_index(self):
        """The compiled L outlives an audit: the first compare of a leaf
        scans it, the second builds its key → position index and every later
        audit reads it.  A leaf written since its last proof folds the write
        into that proof's key delta: no key pass at all."""
        workload = generate_workload(small_profile())
        controller = Controller(workload.policy, workload.fabric)
        controller.deploy()
        switches = workload.fabric.switches
        for switch in switches.values():
            switch.tcam.write([switch.tcam.match_keys()[0]], {})
        system = ScoutSystem(controller)

        def audit():
            collector = TraceCollector()
            system.check(trace=collector)
            by_name = {"check.switch": [], "verify.ap.compare": []}
            for recorded in collector.spans():
                by_name.setdefault(recorded.name, []).append(recorded)
            passes = {
                s.attrs["switch"]: s.counters.get("key_passes", 0)
                for s in by_name["check.switch"]
            }
            compares = by_name["verify.ap.compare"]
            return passes, [s.counters["positions_built"] for s in compares]

        every = {uid: 1 for uid in switches}
        # The bootstrap sweep scans; the first refresh, which starts the
        # verdict memo, builds the index.
        assert audit() == (every, [0] * len(switches))
        assert audit() == (every, [1] * len(switches))
        # Nothing moved: every verdict is the held one, nothing is compared.
        reused = system.stats()["verdicts_reused"]
        assert audit() == ({}, [])
        assert system.stats()["verdicts_reused"] == reused + len(switches)
        leaf = sorted(switches)[0]
        vrf, src, dst = switches[leaf].tcam.match_keys()[0][:3]
        foreign = TcamRule(vrf, src, dst, "tcp", 65000)
        switches[leaf].tcam.write((), {foreign.match_key(): foreign})
        # Only the written leaf is proved again, from the foreign key its
        # TCAM recorded, and its compare reads the index the earlier audit
        # built.
        folded = system.stats()["folded_deltas"]
        assert audit() == ({leaf: 0}, [0])
        assert system.stats()["folded_deltas"] == folded + 1

    def test_untraced_check_records_nothing(self, system):
        collector = TraceCollector()
        system.check()  # no trace= argument
        assert len(collector) == 0

    def test_parallel_check_adopts_worker_spans(self, degraded_system):
        system = degraded_system
        collector = TraceCollector()
        serial_fp = system.check().fingerprint()
        # The small fabric runs its shards inline, where the module-global
        # memo cache may be warm from earlier tests' identical rule sets —
        # and a cache hit legitimately skips the engine's build span this
        # test asserts.  Start the round cold.
        reset_worker_cache()
        report = system.check(parallel=True, max_workers=2, trace=collector)
        assert report.fingerprint() == serial_fp

        spans = collector.spans()
        by_name = {}
        for recorded in spans:
            by_name.setdefault(recorded.name, []).append(recorded)
        for required in (
            "parallel.identity_proof",
            "parallel.plan",
            "parallel.build_tasks",
            "parallel.dispatch",
            "parallel.merge",
            "worker.shard",
            "worker.unpickle",
            "worker.check",
            "worker.serialize",
        ):
            assert required in by_name, f"missing span {required!r}"

        # Worker roots are re-parented under the dispatch span.
        (dispatch,) = by_name["parallel.dispatch"]
        assert all(
            shard.parent_id == dispatch.span_id for shard in by_name["worker.shard"]
        )
        # Worker-side checker spans survived the process boundary too.
        assert "verify.ap.build" in by_name
        # Every degraded switch was covered by a shard; none was settled by
        # the identity proof.
        switches = len(system.controller.fabric.switches)
        checked = sum(s.attrs.get("switches", 0) for s in by_name["worker.shard"])
        assert checked == switches
        (proof,) = by_name["parallel.identity_proof"]
        assert program_counters(proof) == {"identity_proofs": 0, "dispatched": switches}

    def test_healthy_parallel_check_never_reaches_a_shard(self, system):
        collector = TraceCollector()
        report = system.check(parallel=True, max_workers=2, trace=collector)
        assert report.fingerprint() == system.check().fingerprint()
        by_name = {recorded.name: recorded for recorded in collector.spans()}
        assert "worker.shard" not in by_name
        switches = len(system.controller.fabric.switches)
        assert program_counters(by_name["parallel.identity_proof"]) == {
            "identity_proofs": switches,
            "dispatched": 0,
        }
        # The oracle engine takes no shortcut: every switch is shipped.
        oracle = TraceCollector()
        system.check(parallel=True, max_workers=2, trace=oracle, engine="bdd")
        shards = [s for s in oracle.spans() if s.name == "worker.shard"]
        assert sum(s.attrs.get("switches", 0) for s in shards) == switches

    def test_breakdown_covers_most_of_the_wall(self, degraded_system):
        import time

        system = degraded_system

        # The inline sweep of this fabric takes ~3 ms, so one scheduler
        # hiccup between two spans is a tenth of the wall.  Coverage is a
        # property of where the spans sit, not of one run's luck: take the
        # best of a few rounds.
        breakdowns = []
        for _ in range(5):
            collector = TraceCollector()
            start = time.perf_counter()
            system.check(parallel=True, max_workers=2, trace=collector)
            wall = time.perf_counter() - start
            spans = collector.spans()
            breakdowns.append(parallel_stage_breakdown(spans, wall, workers=2))
        assert max(breakdown["coverage"] for breakdown in breakdowns) >= 0.9
        assert all(breakdown["shards"] >= 1 for breakdown in breakdowns)

    def test_attribution_over_real_trace(self, system):
        collector = TraceCollector()
        ScoutSystem(system.controller).check(trace=collector)
        spans = collector.spans()
        by_name = {stat.name: stat for stat in attribution(spans)}
        # The bootstrap sweep encloses the per-switch checks: every
        # check.switch span is its child, and together they cannot outlast
        # it.  (Which top-level stage is longest is wall-clock luck on a
        # fabric this small.)
        (sweep,) = [s for s in spans if s.name == "delta.bootstrap"]
        switch_spans = [s for s in spans if s.name == "check.switch"]
        assert switch_spans
        assert all(s.parent_id == sweep.span_id for s in switch_spans)
        assert (
            by_name["check.switch"].total_seconds
            <= by_name["delta.bootstrap"].total_seconds
        )


class TestTracedLocalize:
    def test_localize_records_scout_stages(self, system):
        collector = TraceCollector()
        report = system.localize(trace=collector)
        names = {recorded.name for recorded in collector.spans()}
        # scout.correlate only opens for a non-empty hypothesis; this
        # deployment is consistent, so SCOUT has nothing to correlate.
        assert {"scout.build_index", "scout.risk_model", "scout.localize"} <= names
        assert report.trace is collector

    @pytest.mark.parametrize("scope", ["controller", "switch"])
    def test_the_trace_sizes_augmentation_and_selection(self, degraded_system, scope):
        """One rule is gone from every leaf: the spans say how many rules
        augmentation read and edges it flipped, and how many risks stage 1
        looked at again after pruning — the two halves of a slow poll."""
        collector = TraceCollector()
        report = degraded_system.localize(scope=scope, trace=collector)
        by_name = {}
        for recorded in collector.spans():
            by_name.setdefault(recorded.name, []).append(recorded)
        (risk_model,) = by_name["scout.risk_model"]
        leaves = len(report.equivalence.missing_rules())
        models = report.risk_models.values()
        flipped = sum(len(failed_edges(model)) for model in models)
        assert leaves > 1 and risk_model.counters["missing_rules"] == leaves
        assert risk_model.counters["edges_flipped"] == flipped > 0
        stages = by_name["scout.stage1"]
        assert len(stages) == len(models)
        assert sum(stage.counters["iterations"] for stage in stages) >= len(stages)
        assert sum(stage.counters["reevaluated"] for stage in stages) > 0


class TestTracedSync:
    def test_a_redeploy_splits_into_render_and_writes(self):
        """One ``fabric.sync_tcam`` span per reconcile: a redeploy after a
        filter edit visits and re-renders the units under that filter's
        contracts, reuses every other, writes only the render's delta to
        the untouched TCAMs, and counts the rules it wrote beside them; a
        resync after rule loss visits nothing and reconciles in full."""
        workload = generate_workload(small_profile())
        controller = Controller(workload.policy, workload.fabric)
        controller.deploy()
        fabric = controller.fabric
        index = controller.build_index()
        target = next(
            f for f in workload.policy.filters() if index.pairs_for_object(f.uid)
        )
        changed = dataclasses.replace(
            target, entries=target.entries + (FilterEntry(protocol="tcp", port=47000),)
        )
        tenant = workload.policy.tenant_of(target.uid).name
        controller.modify_object(tenant, changed, detail="trace test")
        held = fabric.total_installed_rules()
        collector = TraceCollector()
        with activated(collector):
            controller.deploy(record_initial_changes=False)
        syncs = [span for span in collector.spans() if span.name == "fabric.sync_tcam"]
        assert len(syncs) == len(fabric.leaf_uids())
        touched = [span for span in syncs if span.counters["units_rendered"]]
        assert touched and all(span.counters["units_reused"] for span in syncs)
        assert not any(span.counters["renders_reused"] for span in touched)
        assert all(span.attrs["reconcile"] == "delta" for span in syncs)
        for span in syncs:
            visited = span.counters.get("units_visited", 0)
            assert visited >= span.counters["units_rendered"]
            assert (visited == 0) == bool(span.counters["renders_reused"])
        assert all(span.counters["removed"] == 0 for span in syncs)
        installed = sum(span.counters["installed"] for span in touched)
        assert installed == fabric.total_installed_rules() - held > 0

        # A resync after rule loss is all reuse: nothing moved in the view.
        leaf = fabric.switch(touched[0].attrs["switch"])
        lost = leaf.tcam.remove_where(lambda rule: rule.port == 47000)
        collector.clear()
        with activated(collector):
            leaf.sync_tcam()
        (resync,) = collector.spans()
        assert resync.counters["units_rendered"] == 0 < resync.counters["units_reused"]
        assert resync.counters["renders_reused"] == 1
        assert resync.attrs["reconcile"] == "full"
        assert resync.counters.get("units_visited", 0) == 0
        assert resync.counters["installed"] == len(lost) > 0


class TestTracedRefresh:
    def test_incremental_refresh_spans(self):
        workload = generate_workload(small_profile())
        controller = Controller(workload.policy, workload.fabric)
        controller.deploy()
        checker = IncrementalChecker(controller)

        collector = TraceCollector()
        with activated(collector):
            checker.bootstrap()
        names = [recorded.name for recorded in collector.spans()]
        assert "delta.bootstrap" in names

        from repro.policy.objects import Filter, ObjectType

        target = next(
            f
            for f in workload.policy.filters()
            if controller.build_index().pairs_for_object(f.uid)
        )
        tenant = workload.policy.tenant_of(target.uid).name
        changed = Filter(
            uid=target.uid,
            name=target.name,
            entries=target.entries + (FilterEntry(protocol="tcp", port=47000),),
        )
        controller.modify_object(tenant, changed, detail="trace test")
        checker.note_policy_change(target.uid, ObjectType.FILTER)
        collector.clear()
        with activated(collector):
            refreshed = checker.refresh()
        assert refreshed
        by_name = {recorded.name: recorded for recorded in collector.spans()}
        assert "delta.refresh" in by_name
        # The refresh's one compile request says what it cost the controller:
        # a payload-only edit derives the index and re-renders its pairs.
        compiled = by_name["delta.compile"].counters
        assert compiled["patches"] == 1 and compiled["rebuilds"] == 0
        assert compiled["pairs_recompiled"] >= 1
        assert compiled["switches_reassembled"] >= 1
        refresh_span = by_name["delta.refresh"]
        assert refresh_span.counters.get("switch_checks", 0) >= 1
