"""Unit tests for the shard planner and worker-count clamping."""

import heapq
import random

import pytest

from repro.parallel import clamp_workers, plan_shards


class TestClampWorkers:
    def test_default_follows_available(self):
        assert clamp_workers(None, available=8) == 8

    def test_default_clamped_by_item_count(self):
        assert clamp_workers(None, total_items=3, available=8) == 3

    def test_explicit_request_clamped_by_item_count(self):
        assert clamp_workers(16, total_items=4) == 4

    def test_explicit_request_may_oversubscribe_cores(self):
        # An explicit ask is honoured beyond the core count (pools allow it).
        assert clamp_workers(6, available=2) == 6

    def test_never_below_one(self):
        assert clamp_workers(0) == 1
        assert clamp_workers(-3, total_items=10) == 1
        assert clamp_workers(None, total_items=0, available=4) == 1
        assert clamp_workers(None, available=0) == 1


class TestPlanShards:
    def test_deterministic_and_input_order_independent(self):
        uids = [f"leaf-{i}" for i in range(20)]
        weights = {uid: (i * 7) % 13 + 1 for i, uid in enumerate(uids)}
        forward = plan_shards(uids, 4, weights=weights)
        backward = plan_shards(reversed(uids), 4, weights=weights)
        again = plan_shards(set(uids), 4, weights=weights)
        assert forward == backward == again

    def test_every_switch_planned_exactly_once(self):
        uids = [f"leaf-{i}" for i in range(17)]
        plan = plan_shards(uids, 4)
        planned = [uid for shard in plan for uid in shard]
        assert sorted(planned) == sorted(uids)
        assert len(planned) == len(set(planned))

    def test_unweighted_plan_is_balanced(self):
        plan = plan_shards([f"leaf-{i}" for i in range(16)], 4)
        assert [len(shard) for shard in plan.shards] == [4, 4, 4, 4]

    def test_lpt_isolates_the_heavy_switch(self):
        # One border leaf dwarfs the compute leaves: LPT must give it its
        # own shard instead of stacking more work on top of it.
        weights = {"border": 1000}
        weights.update({f"leaf-{i}": 10 for i in range(9)})
        plan = plan_shards(weights, 3, weights=weights)
        assert ("border",) in plan.shards

    def test_plan_is_the_textbook_lpt_with_uid_and_shard_tie_breaks(self):
        """Heaviest first (ties by uid), each onto the lightest shard so far
        (ties by shard number), spelled out the slow way."""
        rng = random.Random(3)
        for _ in range(50):
            uids = [f"leaf-{rng.randrange(40)}" for _ in range(rng.randrange(1, 30))]
            weights = {uid: rng.choice([0, 1, 5, 5, 90]) for uid in uids[::2]}
            shards = rng.randrange(1, 6)
            distinct = sorted(set(uids))

            def weight(uid):
                return max(1, weights.get(uid, 1))

            heap = [(0, shard) for shard in range(min(shards, len(distinct)))]
            members = {shard: [] for _, shard in heap}
            for uid in sorted(distinct, key=lambda uid: (-weight(uid), uid)):
                load, shard = heapq.heappop(heap)
                members[shard].append(uid)
                heapq.heappush(heap, (load + weight(uid), shard))
            by_shard = sorted(heap, key=lambda entry: entry[1])
            plan = plan_shards(uids, shards, weights=weights)
            assert plan.shards == tuple(tuple(sorted(members[s])) for s in members)
            assert plan.weights == tuple(load for load, _ in by_shard)

    def test_more_shards_than_switches(self):
        plan = plan_shards(["a", "b"], 8)
        assert plan.num_shards == 2
        assert all(len(shard) == 1 for shard in plan.shards)

    def test_empty_input(self):
        plan = plan_shards([], 4)
        assert plan.num_shards == 0
        assert plan.switches() == ()

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(["a"], 0)

    def test_group_follows_plan_and_collects_strangers(self):
        plan = plan_shards([f"leaf-{i}" for i in range(8)], 2)
        subset = ["leaf-1", "leaf-5", "leaf-1", "ghost-9"]
        batches = plan.group(subset)
        grouped = [uid for batch in batches for uid in batch]
        # Dedup'd, every uid exactly once, strangers in the trailing batch.
        assert sorted(grouped) == ["ghost-9", "leaf-1", "leaf-5"]
        assert batches[-1] == ("ghost-9",)
        for batch in batches[:-1]:
            assert any(set(batch) <= set(shard) for shard in plan.shards)

    def test_plan_is_picklable(self):
        import pickle

        plan = plan_shards([f"leaf-{i}" for i in range(6)], 2)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.group(["leaf-3", "leaf-0"]) == plan.group(["leaf-3", "leaf-0"])

    def test_weights_recorded_per_shard(self):
        weights = {"a": 5, "b": 3, "c": 2}
        plan = plan_shards(weights, 2, weights=weights)
        assert sum(plan.weights) == 10
        assert plan.num_shards == 2

    def test_membership_and_describe(self):
        plan = plan_shards(["a", "b", "c"], 2)
        assert "a" in plan
        assert "zz" not in plan
        assert "shard 0" in plan.describe()
