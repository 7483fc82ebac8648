"""Correlation ids: minting, nesting, span stamping, cross-process adoption."""

from __future__ import annotations

import os

import pytest

from repro.controller.controller import Controller
from repro.core import ScoutSystem
from repro.obs import (
    TraceCollector,
    activated,
    correlated,
    current_corr_id,
    new_corr_id,
)
from repro.parallel import WarmWorkerPool
from repro.workloads import small_profile
from repro.workloads.generator import generate_workload


class TestCorrIds:
    def test_outside_any_context_there_is_no_ambient_id(self):
        assert current_corr_id() is None

    def test_minted_ids_are_unique_and_prefixed(self):
        first, second = new_corr_id("req"), new_corr_id("req")
        assert first != second
        assert first.startswith("req-")
        assert second.startswith("req-")

    def test_correlated_mints_reuses_and_overrides(self):
        with correlated(prefix="poll") as outer:
            assert outer.startswith("poll-")
            assert current_corr_id() == outer
            # Nested work joins the ambient trail instead of minting anew.
            with correlated(prefix="inner") as inner:
                assert inner == outer
            # An explicit id always wins.
            with correlated("corr-explicit") as explicit:
                assert explicit == "corr-explicit"
                assert current_corr_id() == "corr-explicit"
            assert current_corr_id() == outer
        assert current_corr_id() is None

    def test_correlated_restores_the_outer_id_when_the_block_raises(self):
        with correlated("corr-outer"):
            with pytest.raises(RuntimeError):
                with correlated("corr-inner"):
                    assert current_corr_id() == "corr-inner"
                    raise RuntimeError("boom")
            assert current_corr_id() == "corr-outer"
        assert current_corr_id() is None


class TestSpanStamping:
    def test_spans_inherit_the_ambient_corr_id(self):
        collector = TraceCollector()
        with correlated("corr-stamp"):
            with collector.span("work"):
                pass
        (recorded,) = collector.spans()
        assert recorded.attrs["corr_id"] == "corr-stamp"

    def test_explicit_attr_beats_the_ambient_id(self):
        collector = TraceCollector()
        with correlated("corr-ambient"):
            with collector.span("work", corr_id="corr-pinned"):
                pass
        (recorded,) = collector.spans()
        assert recorded.attrs["corr_id"] == "corr-pinned"

    def test_spans_without_ambient_id_stay_unstamped(self):
        collector = TraceCollector()
        with collector.span("work"):
            pass
        (recorded,) = collector.spans()
        assert "corr_id" not in recorded.attrs

    def test_adopt_restamps_payloads_missing_a_corr_id(self):
        worker_side = TraceCollector()
        with worker_side.span("worker.shard"):
            pass
        payloads = [recorded.to_dict() for recorded in worker_side.spans()]
        parent = TraceCollector()
        with correlated("corr-adopt"):
            parent.adopt(payloads)
        (restored,) = parent.spans()
        assert restored.attrs["corr_id"] == "corr-adopt"

    def test_adopt_preserves_a_shipped_corr_id(self):
        worker_side = TraceCollector()
        with correlated("corr-worker"):
            with worker_side.span("worker.shard"):
                pass
        payloads = [recorded.to_dict() for recorded in worker_side.spans()]
        parent = TraceCollector()
        with correlated("corr-parent"):
            parent.adopt(payloads)
        (restored,) = parent.spans()
        assert restored.attrs["corr_id"] == "corr-worker"


@pytest.fixture(scope="module")
def system():
    """A deployed fabric one of whose leaves has lost a rule.

    A healthy switch is proven equivalent in the calling process and never
    reaches a worker; the degraded leaf is what exercises the worker path.
    """
    workload = generate_workload(small_profile())
    controller = Controller(workload.policy, workload.fabric)
    controller.deploy()
    tcam = workload.fabric.switch(sorted(workload.fabric.leaf_uids())[0]).tcam
    tcam.remove(tcam.match_keys()[0])
    return ScoutSystem(controller)


class TestCrossProcess:
    def test_worker_spans_carry_the_corr_id_across_the_pool(self, system):
        """The id survives the pickle boundary into real worker processes."""
        collector = TraceCollector()
        controller = system.controller
        logical = controller.logical_rules()
        deployed = controller.collect_deployed_rules()
        switches = [(uid, logical[uid], deployed[uid]) for uid in sorted(logical)]
        with WarmWorkerPool(max_workers=2) as pool:
            with correlated("corr-pool-1"), activated(collector):
                report = system.checker.check_many(switches, executor=pool)
        assert len(report.switches_with_violations()) == 1
        workers = [
            recorded
            for recorded in collector.spans()
            if recorded.name.startswith("worker.")
        ]
        assert workers
        assert all(
            recorded.attrs.get("corr_id") == "corr-pool-1" for recorded in workers
        )
        # At least some of that work genuinely ran in another process.
        assert any(recorded.pid != os.getpid() for recorded in workers)

    def test_uncorrelated_check_ships_no_id(self, system):
        collector = TraceCollector()
        report = system.check(parallel=True, max_workers=2, trace=collector)
        assert len(report.switches_with_violations()) == 1
        workers = [
            recorded
            for recorded in collector.spans()
            if recorded.name.startswith("worker.")
        ]
        assert workers
        assert all("corr_id" not in recorded.attrs for recorded in workers)
