"""PartitionMap contracts and partitioned-vs-single monitor identity."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.churn import ChurnDriver
from repro.experiments import prepare_workload
from repro.online import NetworkMonitor, PartitionMap
from repro.parallel.executor import SMALL_FABRIC_SWITCHES
from repro.policy.objects import Filter, FilterEntry
from repro.workloads import simulation_profile, three_tier_scenario


class TestPartitionMap:
    def test_plan_is_a_pure_function_of_uids_and_weights(self):
        uids = [f"leaf-{i}" for i in range(10)]
        weights = {uid: index + 1 for index, uid in enumerate(uids)}
        forward = PartitionMap.plan(uids, 3, weights=weights)
        backward = PartitionMap.plan(list(reversed(uids)), 3, weights=weights)
        assert forward.shards == backward.shards

    def test_short_plans_pad_to_the_partition_count(self):
        # The monitor runs one checker per partition whether or not it owns
        # a switch, so the map must keep the requested count with empty
        # slots instead of shrinking.
        pmap = PartitionMap.plan(["leaf-1"], 4)
        assert len(pmap) == 4
        assert pmap.owned(0) == ("leaf-1",)
        assert all(pmap.owned(index) == () for index in range(1, 4))

    def test_partitions_below_one_rejected(self):
        with pytest.raises(ValueError):
            PartitionMap.plan(["leaf-1"], 0)

    def test_ownership_is_total_and_disjoint(self):
        uids = [f"leaf-{i}" for i in range(7)]
        pmap = PartitionMap.plan(uids, 3)
        assert all(0 <= pmap.partition_of(uid) < 3 for uid in uids)
        planned = [uid for index in range(3) for uid in pmap.owned(index)]
        assert sorted(planned) == sorted(uids)
        assert len(planned) == len(set(planned))

    def test_unknown_uid_falls_back_to_a_stable_hash(self):
        pmap = PartitionMap.plan(["leaf-1", "leaf-2"], 2)
        owner = pmap.partition_of("leaf-commissioned-later")
        assert owner == pmap.partition_of("leaf-commissioned-later")
        assert 0 <= owner < 2
        # Fallback-routed uids are not part of the planned shards.
        assert all(
            "leaf-commissioned-later" not in pmap.owned(index) for index in range(2)
        )

    def test_dict_round_trip(self):
        pmap = PartitionMap.plan([f"leaf-{i}" for i in range(5)], 2)
        clone = PartitionMap.from_dict(pmap.to_dict())
        assert clone.shards == pmap.shards
        assert clone.partition_of("leaf-3") == pmap.partition_of("leaf-3")

    def test_from_dict_validates_shape(self):
        with pytest.raises(ValueError):
            PartitionMap.from_dict({"shards": "nope"})
        with pytest.raises(ValueError):
            PartitionMap.from_dict({})
        with pytest.raises(ValueError):
            PartitionMap.from_dict({"shards": [["leaf-1"], "leaf-2"]})


class TestPartitionedMonitor:
    def test_partition_count_below_one_rejected(self, three_tier):
        with pytest.raises(ValueError):
            NetworkMonitor(three_tier.controller, partitions=0)

    def test_partitioned_monitor_detects_like_a_single_one(self, three_tier):
        monitor = NetworkMonitor(three_tier.controller, debounce_ticks=1, partitions=2)
        report = monitor.start()
        assert report.equivalent
        assert monitor.partitions == 2
        switch = three_tier.fabric.switch("leaf-2")
        switch.tcam.remove_where(lambda rule: rule.port == 700)
        three_tier.controller.clock.tick(2)
        result = monitor.poll()
        assert [incident.switch_uid for incident in result.opened] == ["leaf-2"]
        # One bootstrap per partition, nothing since: the incremental path
        # answered the event.
        assert monitor.stats()["full_checks"] == 2
        monitor.close()

    def test_new_ports_on_both_partitions_in_one_poll_match_a_single_checker(self):
        # Both shards see a never-observed port in the same poll, on sibling
        # threads: each patches its own engine clone's atom table.
        def drift(**monitor_kwargs):
            scenario = three_tier_scenario()
            controller = scenario.controller
            monitor = NetworkMonitor(
                controller, debounce_ticks=1, max_workers=2, **monitor_kwargs
            )
            monitor.start()
            try:
                widened = Filter(
                    uid=scenario.uids["filter_extra_0"],
                    name="port700",
                    entries=(
                        FilterEntry(protocol="tcp", port=700),
                        FilterEntry(protocol="tcp", port=799),
                    ),
                )
                controller.modify_object("webshop", widened, detail="widen")
                controller.clock.tick(2)
                result = monitor.poll()
                assert result.switches_rechecked == ["leaf-2", "leaf-3"]
                return monitor.store.to_jsonl(), monitor.report().fingerprint()
            finally:
                monitor.close()

        split = PartitionMap([["leaf-1", "leaf-2"], ["leaf-3"]])
        assert drift(partition_map=split) == drift()

    def test_partitioned_run_identical_to_single_on_small(
        self, partitioned_churn_driver
    ):
        # Satellite contract: the partitioned monitor's incident stream and
        # final verdict are byte-identical to the single checker's on the
        # ``small`` profile (``simulation`` runs in the soak lane).
        single = ChurnDriver.for_workload("small", events=20, seed=7)
        sharded = partitioned_churn_driver("small", 3, seed=7, events=20)
        try:
            report_single = single.run()
            report_sharded = sharded.run()
            assert report_single.identity() == report_sharded.identity()
            assert single.monitor.store.to_jsonl() == sharded.monitor.store.to_jsonl()
            assert (
                single.monitor.report().semantic_fingerprint()
                == sharded.monitor.report().semantic_fingerprint()
            )
            assert sharded.monitor.partitions == 3
            assert report_sharded.monitor_stats["partitions"] == 3
        finally:
            single.close()
            sharded.close()


class TestSpawnFree:
    """No monitor poll spawns a process: every dirty switch is re-checked
    where it stands, for any ``partitions`` / ``max_workers`` / batch size."""

    @staticmethod
    def two_storms(lopsided=False, **monitor_kwargs):
        """Two storms under one monitor — every leaf loses a rule, so all ten
        fail their digest at once: everything the monitor produced, read
        while it is still open."""
        controller = prepare_workload(simulation_profile()).controller
        if lopsided:
            # One partition holds enough leaves for a batch that used to
            # warrant a worker pool; the other stays far below that.
            leaves = sorted(controller.fabric.switches)
            monitor_kwargs["partition_map"] = PartitionMap(
                [leaves[:SMALL_FABRIC_SWITCHES], leaves[SMALL_FABRIC_SWITCHES:]]
            )
        monitor = NetworkMonitor(controller, **monitor_kwargs)
        monitor.start()
        try:
            for _ in range(2):
                for switch in controller.fabric.switches.values():
                    assert switch.tcam.write([switch.tcam.match_keys()[0]], {})[0]
                controller.clock.tick(2)
                monitor.poll()
            opened, updated = monitor.passes
            assert len(opened.opened) == len(updated.updated) == len(
                controller.fabric.switches
            )
            assert multiprocessing.active_children() == []
            return (
                [monitor_pass.to_dict() for monitor_pass in monitor.passes],
                monitor.store.to_jsonl(),
                monitor.report().fingerprint(),
            )
        finally:
            monitor.close()

    @pytest.fixture(scope="class")
    def default_monitor_output(self):
        return self.two_storms()

    def test_small_partition_batches_run_inline(self, default_monitor_output):
        assert self.two_storms(partitions=2, max_workers=2) == default_monitor_output

    def test_four_threaded_partitions_match_the_default_monitor(
        self, default_monitor_output
    ):
        assert self.two_storms(partitions=4, max_workers=4) == default_monitor_output

    @pytest.mark.parametrize("max_workers", [None, 2, 4])
    def test_large_partition_batches_spawn_nothing_and_match_the_default_monitor(
        self, max_workers, default_monitor_output
    ):
        assert (
            self.two_storms(lopsided=True, max_workers=max_workers)
            == default_monitor_output
        )
