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

from oracles import failed_edges
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
        switch.tcam.remove(switch.tcam.match_keys()[0])
    return ScoutSystem(controller)


class TestTracedCheck:
    def test_serial_check_records_pipeline_spans(self, degraded_system):
        system = degraded_system
        collector = TraceCollector()
        report = system.check(trace=collector)
        assert not report.equivalent
        names = {recorded.name for recorded in collector.spans()}
        assert {
            "check.compile_logical",
            "check.collect_deployed",
            "check.network",
            "check.switch",
            "verify.ap.build",
        } <= names
        switches = len(system.controller.fabric.switches)
        checks = [s for s in collector.spans() if s.name == "check.switch"]
        assert len(checks) == switches
        assert all(s.counters["delta_checks"] == 1 for s in checks)
        # Engine counters surfaced on the build spans (the oracle's too):
        # one rule gone from a leaf scopes the build to that rule's triple.
        builds = [s for s in collector.spans() if s.name == "verify.ap.build"]
        assert len(builds) == switches
        for build in builds:
            assert build.counters["atoms"] > 0
            assert build.counters["touched_triples"] == 1
            assert 0 < build.counters["scoped_rules"] < build.counters["rules"]
        oracle = TraceCollector()
        system.check(trace=oracle, engine="bdd")
        builds = [s for s in oracle.spans() if s.name == "verify.bdd.build"]
        assert builds and all(s.counters.get("apply_ops", 0) > 0 for s in builds)
        # The report carries its trace.
        assert report.trace is collector

    def test_healthy_serial_check_never_builds_atoms(self, system):
        before = system.stats()
        collector = TraceCollector()
        assert system.check(trace=collector).equivalent
        switches = len(system.controller.fabric.switches)
        checks = [s for s in collector.spans() if s.name == "check.switch"]
        assert len(checks) == switches
        assert all("delta_checks" not in s.counters for s in checks)
        assert not [s for s in collector.spans() if s.name == "verify.ap.build"]
        # The serial path counts its identity proofs like the parallel one.
        after = system.stats()
        assert after["identity_proofs"] - before["identity_proofs"] == switches
        assert after["dispatched"] == before["dispatched"]

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
        assert proof.counters == {"identity_proofs": 0, "dispatched": switches}

    def test_healthy_parallel_check_never_reaches_a_shard(self, system):
        collector = TraceCollector()
        report = system.check(parallel=True, max_workers=2, trace=collector)
        assert report.fingerprint() == system.check().fingerprint()
        by_name = {recorded.name: recorded for recorded in collector.spans()}
        assert "worker.shard" not in by_name
        switches = len(system.controller.fabric.switches)
        assert by_name["parallel.identity_proof"].counters == {
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
        system.check(trace=collector)
        spans = collector.spans()
        by_name = {stat.name: stat for stat in attribution(spans)}
        # check.network encloses the per-switch checks: every check.switch
        # span is its child, and together they cannot outlast it.  (Which
        # top-level stage is longest is wall-clock luck on a fabric this small.)
        (network,) = [s for s in spans if s.name == "check.network"]
        switch_spans = [s for s in spans if s.name == "check.switch"]
        assert switch_spans
        assert all(s.parent_id == network.span_id for s in switch_spans)
        assert (
            by_name["check.switch"].total_seconds
            <= by_name["check.network"].total_seconds
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
        filter edit re-renders the units under that filter's contracts,
        reuses every other, and counts the rules it wrote beside them."""
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
