"""Lifecycle edges of the persistent warm-worker pool.

The pool's correctness story is that *nothing semantic* rides on worker
lifetime: a crash mid-shard, a cache hit, a cache invalidation or a pool
shutdown may change wall-clock, never the merged report's fingerprint.
These tests pin each of those edges — crash/respawn/retry, digest-keyed
invalidation, cold-vs-warm identity, and shutdown through the one owner
(`ScoutSystem.close`).

The crash helpers are module-level functions (picklable by reference) that
``os._exit`` the worker process — the closest cheap stand-in for an OOM
kill or segfault, since no exception ever crosses the queue.
"""

import os

import pytest

from repro.core import ScoutSystem
from repro.experiments import prepare_workload
from repro.faults.injector import FaultInjector
from repro.parallel import BrokenWorkerPool, WarmWorkerPool
from repro.parallel.engine import run_shard
from repro.parallel.memo import WORKER_CACHE, reset_worker_cache
from repro.rules import TcamRule
from repro.verify import EquivalenceChecker
from repro.workloads import simulation_profile

import random


def _rule(port, src=1, dst=2, protocol="tcp", vrf=101, action="allow"):
    return TcamRule(
        vrf,
        src,
        dst,
        protocol,
        port,
        action=action,
        vrf_uid="vrf:t/v",
        src_epg_uid=f"epg:t/{src}",
        dst_epg_uid=f"epg:t/{dst}",
        contract_uid="contract:t/c",
        filter_uid="filter:t/f",
    )


# --------------------------------------------------------------------- #
# Worker payloads (module-level so fork AND spawn can pickle them)
# --------------------------------------------------------------------- #
def _pid(_arg):
    return os.getpid()


def _boom(message):
    raise ValueError(message)


def _always_exit(_arg):
    os._exit(17)


def _exit_once(path):
    """Kill the worker process the first time; succeed on the retry."""
    if not os.path.exists(path):
        open(path, "w").close()
        os._exit(17)
    return "ok"


def _flaky_run_shard(task):
    """run_shard that takes its whole process down on the first shard seen."""
    sentinel = os.environ["REPRO_TEST_CRASH_SENTINEL"]
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(17)
    return run_shard(task)


@pytest.fixture(scope="module")
def faulty_simulation():
    deployed = prepare_workload(simulation_profile())
    FaultInjector(deployed.controller, rng=random.Random(99)).inject_random_faults(4)
    return deployed


class TestWarmWorkerPool:
    def test_inline_mode_below_two_workers(self):
        with WarmWorkerPool(max_workers=1) as pool:
            assert list(pool.map(_pid, [None, None])) == [os.getpid(), os.getpid()]
            assert pool.running_workers == 0  # no processes were ever spawned
            assert pool.rounds == 1

    def test_empty_round_is_a_no_op(self):
        with WarmWorkerPool(max_workers=2) as pool:
            assert list(pool.map(_pid, [])) == []
            assert pool.rounds == 0
            assert pool.running_workers == 0

    def test_results_come_back_in_submission_order(self):
        with WarmWorkerPool(max_workers=2) as pool:
            results = list(pool.map(str.upper, ["a", "b", "c", "d", "e"]))
            assert results == ["A", "B", "C", "D", "E"]
            assert pool.running_workers == 2

    def test_worker_exceptions_propagate(self):
        with WarmWorkerPool(max_workers=2) as pool:
            with pytest.raises(ValueError, match="shard went sideways"):
                list(pool.map(_boom, ["shard went sideways"]))
            # The pool survives a *raised* exception (only crashes respawn).
            assert pool.respawns == 0
            assert list(pool.map(str.upper, ["x"])) == ["X"]

    def test_crash_respawns_and_retries_the_round(self, tmp_path):
        sentinel = str(tmp_path / "crash-once")
        with WarmWorkerPool(max_workers=2) as pool:
            assert list(pool.map(_exit_once, [sentinel])) == ["ok"]
            assert pool.respawns >= 1
            assert pool.running_workers == 2  # repaired, not shrunk

    def test_persistent_crash_exhausts_the_retry_budget(self):
        pool = WarmWorkerPool(max_workers=2, max_retries=1)
        with pytest.raises(BrokenWorkerPool):
            list(pool.map(_always_exit, [None]))
        assert pool.closed

    def test_map_after_shutdown_raises(self):
        pool = WarmWorkerPool(max_workers=2)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut-down"):
            pool.map(_pid, [None])


class TestCacheSemantics:
    def test_cold_vs_warm_identity_and_hit_counting(self):
        reset_worker_cache()
        checker = EquivalenceChecker()
        logical = [_rule(80), _rule(443)]
        # Degraded, so the pair reaches the pool: a clean switch is proven
        # equivalent by key-set identity before anything is shipped.
        deployed = [_rule(80)]
        with WarmWorkerPool(max_workers=1) as pool:
            cold = checker.check_many([("leaf-1", logical, deployed)], executor=pool)
            warm = checker.check_many([("leaf-1", logical, deployed)], executor=pool)
        assert not cold.equivalent
        assert cold.fingerprint() == warm.fingerprint()
        assert cold.results == warm.results
        assert pool.stats()["cache_misses"] == 1
        assert pool.stats()["cache_hits"] == 1

    def test_digest_change_invalidates_and_warm_verdict_is_fresh(self):
        reset_worker_cache()
        checker = EquivalenceChecker()
        logical = [_rule(80), _rule(443)]
        with WarmWorkerPool(max_workers=1) as pool:
            first = checker.check_many(
                [("leaf-1", logical, [_rule(443)])], executor=pool
            )
            assert first.results["leaf-1"].missing_rules == [logical[0]]
            # A different deployed rule vanishes: the digest differs, so the
            # warm entry for the first state is simply never consulted for
            # this one.
            degraded = checker.check_many(
                [("leaf-1", logical, [_rule(80)])], executor=pool
            )
        assert not degraded.equivalent
        assert degraded.results["leaf-1"].missing_rules == [logical[1]]
        assert degraded.results["leaf-1"].missing_rules[0] is logical[1]
        assert pool.stats()["cache_misses"] == 2
        assert pool.stats()["cache_hits"] == 0

    def test_warm_rounds_hit_across_real_processes(self, faulty_simulation):
        with ScoutSystem(faulty_simulation.controller) as system:
            serial_fp = system.check().fingerprint()
            cold = system.check(parallel=True, max_workers=2)
            warm = system.check(parallel=True, max_workers=2)
            pool = system.worker_pool()
            assert cold.fingerprint() == serial_fp
            assert warm.fingerprint() == serial_fp
            # Sticky routing sends round 2's shards to the workers that
            # checked them in round 1, so the memo caches answer everything.
            assert pool.stats()["cache_hits"] >= 1
            assert pool.rounds == 2

    def test_crash_mid_shard_leaves_fingerprint_unchanged(
        self, faulty_simulation, tmp_path, monkeypatch
    ):
        sentinel = tmp_path / "crash-mid-shard"
        monkeypatch.setenv("REPRO_TEST_CRASH_SENTINEL", str(sentinel))
        monkeypatch.setattr("repro.parallel.engine.run_shard", _flaky_run_shard)
        with ScoutSystem(faulty_simulation.controller) as system:
            serial_fp = system.check().fingerprint()
            report = system.check(parallel=True, max_workers=2)
            pool = system.worker_pool()
            assert sentinel.exists()  # a worker really did die mid-round
            assert pool.respawns >= 1
            assert report.fingerprint() == serial_fp
            recheck = system.check()
            assert report.semantic_fingerprint() == recheck.semantic_fingerprint()


class TestOwnerLifecycles:
    def test_scout_system_close_releases_workers(self, faulty_simulation):
        system = ScoutSystem(faulty_simulation.controller)
        first = system.check(parallel=True, max_workers=2)
        pool = system.worker_pool()
        assert pool.running_workers == 2
        system.close()
        assert pool.closed
        assert pool.running_workers == 0
        # A later parallel check transparently builds a fresh pool.
        second = system.check(parallel=True, max_workers=2)
        assert system.worker_pool() is not pool
        assert second.fingerprint() == first.fingerprint()
        system.close()


def test_worker_cache_is_bounded():
    reset_worker_cache()
    from repro.parallel.memo import CompiledOutcome, CompiledStateCache

    cache = CompiledStateCache(max_entries=2)
    outcome = CompiledOutcome(
        equivalent=True,
        missing=(),
        extra=(),
        logical_count=0,
        deployed_count=0,
        engine="bdd",
    )
    cache.store("a", outcome)
    cache.store("b", outcome)
    assert cache.lookup("a") is outcome  # refreshed: now most recent
    cache.store("c", outcome)  # evicts "b", the least recently used
    assert cache.lookup("b") is None
    assert cache.lookup("a") is outcome
    assert cache.lookup("c") is outcome
    assert len(cache) == 2
    assert WORKER_CACHE.stats()["entries"] == 0  # module cache untouched
