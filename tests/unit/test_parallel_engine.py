"""Serial/parallel equality of the sharded verification engine.

The engine's one correctness obligation: whatever executor or shard plan
runs the per-switch checks, the merged report must be indistinguishable
from the serial sweep — same verdicts, same rule objects (provenance
included), same fingerprint.  These tests pin that on the synthetic
workloads, including the ``simulation_profile`` the accuracy experiments
use, and cover the work-unit plumbing the process pool relies on.
"""

import multiprocessing
import pickle
import random
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from oracles import failed_edges
from repro.core import ScoutSystem
from repro.experiments import prepare_workload
from repro.faults.injector import FaultInjector
from repro.obs import TraceCollector, activated
from repro.online import IncrementalChecker
from repro.parallel import plan_shards
from repro.parallel.engine import ShardTask, SwitchWorkUnit, run_shard
from repro.parallel.memo import WORKER_CACHE, reset_worker_cache
from repro.risk.augment import (
    augment_controller_model,
    augment_controller_model_sharded,
)
from repro.risk.controller_model import build_controller_risk_model
from repro.rules import TcamRule
from repro.verify import EquivalenceChecker
from repro.workloads import simulation_profile


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


@pytest.fixture(scope="module")
def faulty_simulation():
    """The simulation-profile workload with injected faults (module-shared)."""
    deployed = prepare_workload(simulation_profile())
    FaultInjector(deployed.controller, rng=random.Random(99)).inject_random_faults(4)
    return deployed


class TestCheckMany:
    def test_serial_and_sharded_reports_identical_on_simulation(
        self, faulty_simulation
    ):
        controller = faulty_simulation.controller
        checker = EquivalenceChecker()
        logical = controller.logical_rules()
        deployed = controller.collect_deployed_rules()
        serial = checker.check_network(logical, deployed)
        triples = [
            (uid, logical.get(uid, ()), deployed.get(uid, ()))
            for uid in set(logical) | set(deployed)
        ]
        plan = plan_shards([t[0] for t in triples], 4)
        children = set(multiprocessing.active_children())
        sharded = checker.check_many(triples, executor=None, max_workers=4, plan=plan)
        # No executor means inline, whatever the batch size or worker count.
        assert set(multiprocessing.active_children()) <= children
        assert sharded.fingerprint() == serial.fingerprint()
        assert sharded.results == serial.results
        assert not serial.equivalent  # faults were injected: non-trivial

    def test_process_pool_matches_serial(self, faulty_simulation):
        controller = faulty_simulation.controller
        with ScoutSystem(controller) as system:
            serial = system.check()
            pooled = system.check(parallel=True, max_workers=2)
            assert pooled.fingerprint() == serial.fingerprint()

    def test_plan_is_optional_and_any_shard_count_agrees(self, faulty_simulation):
        controller = faulty_simulation.controller
        checker = EquivalenceChecker()
        logical = controller.logical_rules()
        deployed = controller.collect_deployed_rules()
        triples = [(uid, logical[uid], deployed.get(uid, ())) for uid in logical]
        unplanned = checker.check_many(triples)
        one_big_shard = checker.check_many(
            triples, plan=plan_shards([t[0] for t in triples], 1)
        )
        assert unplanned.fingerprint() == one_big_shard.fingerprint()

    def test_provenance_survives_the_process_boundary(self):
        checker = EquivalenceChecker()
        logical = [_rule(80), _rule(443)]
        deployed = [_rule(80)]
        report = checker.check_many([("leaf-1", logical, deployed)])
        (missing,) = report.results["leaf-1"].missing_rules
        assert missing is logical[1]  # the parent's own object, not a copy
        assert missing.contract_uid == "contract:t/c"

    def test_empty_batch(self):
        report = EquivalenceChecker().check_many([])
        assert report.results == {}
        assert report.equivalent


class TestWorkUnits:
    def test_shard_task_round_trips_through_pickle(self):
        reset_worker_cache()
        unit = SwitchWorkUnit(switch_uid="leaf-1", logical_ref=0, deployed_ref=1)
        task = ShardTask(
            units=(unit,),
            buffers=(
                tuple(r.match_key() for r in [_rule(80), _rule(443)]),
                (_rule(80).match_key(),),
            ),
            engine="bdd",
            space_widths=(13, 15, 2, 16),
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        (outcome,) = run_shard(clone).outcomes
        assert not outcome.equivalent
        assert outcome.missing == (_rule(443).match_key(),)
        assert outcome.engine == "bdd"

    def test_worker_respects_checker_configuration(self):
        reset_worker_cache()
        # Identical L and T sides share one interned buffer (deployed_ref
        # aliases logical_ref) — the shard ships the key sequence once.
        keys = tuple(r.match_key() for r in [_rule(p) for p in range(80, 90)])
        for engine in ("ap", "bdd"):
            task = ShardTask(
                units=(
                    SwitchWorkUnit(switch_uid="leaf-1", logical_ref=0, deployed_ref=0),
                ),
                buffers=(keys,),
                engine=engine,
                space_widths=(13, 15, 2, 16),
            )
            (outcome,) = run_shard(task).outcomes
            # Same rule sets, different engine: a separate memo entry.
            assert outcome.engine == engine

    def test_inline_shards_on_sibling_threads_take_turns(self, monkeypatch):
        # The service's job threads can run small audits' shards inline at
        # the same time; they share this process's WORKER_CACHE (one atom
        # table, one LRU), so the checks themselves must never interleave.
        reset_worker_cache()
        real_check = EquivalenceChecker.check_switch
        inside = []
        overlaps = []

        def slow_check(self, switch_uid, logical, deployed):
            inside.append(switch_uid)
            overlaps.append(len(inside))
            time.sleep(0.02)  # hand the GIL to the sibling thread
            try:
                return real_check(self, switch_uid, logical, deployed)
            finally:
                inside.remove(switch_uid)

        monkeypatch.setattr(EquivalenceChecker, "check_switch", slow_check)
        tasks = [
            ShardTask(
                units=(SwitchWorkUnit(f"leaf-{n}", logical_ref=0, deployed_ref=1),),
                # Distinct new ports per thread: both patch the atom table.
                buffers=(
                    tuple(_rule(port).match_key() for port in (base, base + 1)),
                    (_rule(base).match_key(),),
                ),
                engine="ap",
                space_widths=(13, 15, 2, 16),
            )
            for n, base in enumerate((1000, 2000, 3000, 4000))
        ]
        with ThreadPoolExecutor(max_workers=4) as threads:
            results = list(threads.map(run_shard, tasks))
        assert overlaps == [1, 1, 1, 1]
        for task, base, result in zip(tasks, (1000, 2000, 3000, 4000), results):
            (outcome,) = result.outcomes
            assert outcome.missing == (_rule(base + 1).match_key(),)

    def test_cache_reset_replaces_a_lock_inherited_held(self):
        # What a forked pool worker does first: the parent thread that held
        # the lock at fork time does not exist in the child.
        WORKER_CACHE.lock.acquire()
        reset_worker_cache()
        assert not WORKER_CACHE.lock.locked()

    def test_identical_rule_sets_intern_to_shared_buffers(self):
        reset_worker_cache()
        checker = EquivalenceChecker()
        rules = [_rule(80), _rule(443)]
        deployed = [_rule(80)]
        # Three byte-identical degraded switches (a clean one never reaches
        # a shard): their sides intern to two buffers, and the memo cache
        # collapses them to ONE real check per shard round.
        triples = [(f"leaf-{i}", rules, deployed) for i in range(3)]
        collector = TraceCollector()
        with activated(collector):
            report = checker.check_many(triples, max_workers=1)
        assert report.switches_with_violations() == ["leaf-0", "leaf-1", "leaf-2"]
        (build,) = [s for s in collector.spans() if s.name == "parallel.build_tasks"]
        assert build.counters == {"shards": 1, "rule_buffers": 2}
        stats = WORKER_CACHE.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert (checker.identity_proofs, checker.dispatched) == (0, 3)

    def test_clean_switches_are_proven_without_a_shard(self):
        reset_worker_cache()
        rules = [_rule(80), _rule(443)]
        reordered = [_rule(443), _rule(80)]
        triples = [("leaf-0", rules, reordered), ("leaf-1", rules, [_rule(80)])]
        checker = EquivalenceChecker()
        report = checker.check_many(triples)
        assert (checker.identity_proofs, checker.dispatched) == (1, 1)
        # The serial sweep applies — and counts — the same rule.
        assert report.fingerprint() == checker.check_network(
            {uid: logical for uid, logical, _ in triples},
            {uid: deployed for uid, _, deployed in triples},
        ).fingerprint()
        assert (checker.identity_proofs, checker.dispatched) == (2, 2)
        assert WORKER_CACHE.stats()["misses"] == 1  # leaf-1 only
        # The oracle engine proves every switch in full.
        oracle = EquivalenceChecker(engine="bdd")
        assert oracle.check_many(triples).results["leaf-0"].equivalent
        assert (oracle.identity_proofs, oracle.dispatched) == (0, 2)


class TestScoutSystemParallel:
    def test_localize_with_sharded_augmentation_matches_serial(self, faulty_simulation):
        with ScoutSystem(faulty_simulation.controller) as system:
            serial = system.localize(scope="controller")
            sharded = system.localize(scope="controller", parallel=True, max_workers=3)
            assert sharded.faulty_objects() == serial.faulty_objects()
            assert (
                sharded.equivalence.fingerprint() == serial.equivalence.fingerprint()
            )

    def test_sharded_augmentation_builds_the_same_model(self, faulty_simulation):
        deployed = faulty_simulation
        missing = ScoutSystem(deployed.controller).check().missing_rules()
        plan = plan_shards(missing, 3)
        policy, index = deployed.policy, deployed.index
        global_model = build_controller_risk_model(policy, index=index)
        sharded_model = build_controller_risk_model(policy, index=index)
        total = augment_controller_model(global_model, missing)
        per_shard = augment_controller_model_sharded(sharded_model, missing, plan)
        assert sum(per_shard.values()) == total
        assert failed_edges(sharded_model) == failed_edges(global_model)
        assert sharded_model.failure_signature() == global_model.failure_signature()


class TestIncrementalBatching:
    def test_batched_refresh_keeps_digest_short_circuits(self, faulty_simulation):
        controller = faulty_simulation.controller
        checker = IncrementalChecker(controller)
        report = checker.bootstrap()
        clean = [uid for uid, result in report.results.items() if result.equivalent][:3]
        for uid in clean:
            checker.note_switch_change(uid)
        results = checker.refresh()
        assert set(results) == set(clean)
        assert checker.digest_short_circuits == len(clean)
        assert all(result.engine == "digest" for result in results.values())
