"""Unit tests for the experiment harness (scaled-down runs of every figure)."""

import random

import pytest

from repro.core import ScoutSystem
from repro.experiments import (
    SIMULATION_BINS,
    TESTBED_BINS,
    ACCURACY_FIGURES,
    format_accuracy_figure,
    format_accuracy_table,
    format_figure3,
    format_figure7,
    format_scalability,
    prepare_workload,
    run_accuracy_figure,
    run_accuracy_sweep,
    run_figure3,
    run_scalability,
    run_suspect_reduction,
)
from repro.experiments.common import (
    CHANGE_WINDOW,
    make_localizers,
    mean_and_stdev,
    restore_tcam,
    run_trial,
    snapshot_tcam,
)
from repro.faults import FaultInjector
from repro.policy.objects import ObjectType
from repro.workloads import testbed_profile as make_testbed_profile
from repro.workloads import three_tier_scenario
from repro.workloads.profiles import WorkloadProfile


@pytest.fixture(scope="module")
def deployed_testbed():
    return prepare_workload(make_testbed_profile())


def missing_rules(deployed):
    return ScoutSystem(deployed.controller).check().missing_rules()


class TestCommon:
    def test_prepare_workload_is_consistent(self, deployed_testbed):
        assert missing_rules(deployed_testbed) == {}

    def test_snapshot_restore_round_trip(self, deployed_testbed):
        fabric = deployed_testbed.fabric
        snapshot = snapshot_tcam(fabric)
        victim = fabric.leaf_uids()[0]
        fabric.switch(victim).tcam.remove_where(lambda rule: True)
        assert missing_rules(deployed_testbed)
        restore_tcam(fabric, snapshot)
        assert missing_rules(deployed_testbed) == {}

    def test_make_localizers_lineup(self, deployed_testbed):
        localizers = make_localizers(deployed_testbed.controller, score_thresholds=(1.0, 0.6))
        assert set(localizers) == {"SCOUT", "SCORE-1", "SCORE-0.6"}

    def test_mean_and_stdev(self):
        mean, std = mean_and_stdev([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)
        assert mean_and_stdev([]) == (0.0, 0.0)
        assert mean_and_stdev([5.0]) == (5.0, 0.0)


def _restore_rule_by_rule(fabric, snapshot):
    """``restore_tcam`` as a per-rule loop: a wipe, then one write per rule."""
    for uid, entries in snapshot.items():
        tcam = fabric.switch(uid).tcam
        tcam.write(tcam.match_keys(), {})
        for rule in entries.values():
            tcam.write((), {rule.match_key(): rule})


def _tables(fabric):
    """Each leaf's rules, in order, and its install counters."""
    return {
        uid: (
            [rule.to_dict() for rule in switch.tcam.rules()],
            switch.tcam.install_attempts,
            switch.tcam.rejected_installs,
            switch.tcam.evictions,
        )
        for uid, switch in fabric.switches.items()
    }


class TestRestoreTcam:
    """A restore is one write per leaf, and writes what the per-rule loop did."""

    @staticmethod
    def _damaged(capacity=None, evict=False):
        scenario = three_tier_scenario(tcam_capacity=capacity)
        for uid in scenario.fabric.leaf_uids():
            scenario.fabric.switch(uid).tcam.evict_on_overflow = evict
        scenario.fabric.switch("leaf-1").tcam.remove_where(lambda rule: rule.port == 80)
        scenario.fabric.switch("leaf-2").tcam.remove_where(lambda rule: True)
        return scenario

    def test_one_listener_call_per_leaf_and_the_same_rules(self):
        snapshot = snapshot_tcam(three_tier_scenario().fabric)
        bulk, naive = self._damaged(), self._damaged()
        calls = {uid: [] for uid in bulk.fabric.leaf_uids()}
        for uid, seen in calls.items():
            bulk.fabric.switch(uid).tcam.subscribe(
                lambda installed, lost, seen=seen: seen.append((installed, lost))
            )
        held = {uid: len(bulk.fabric.switch(uid).tcam) for uid in calls}

        restore_tcam(bulk.fabric, snapshot)
        _restore_rule_by_rule(naive.fabric, snapshot)

        assert calls == {uid: [(len(snapshot[uid]), held[uid])] for uid in calls}
        assert sum(map(len, snapshot.values())) == 12
        assert _tables(bulk.fabric) == _tables(naive.fabric)
        assert missing_rules(bulk) == {}

    def test_a_restore_moves_each_leaf_writes_by_one(self):
        snapshot = snapshot_tcam(three_tier_scenario().fabric)
        damaged = self._damaged()
        tcams = {uid: damaged.fabric.switch(uid).tcam for uid in damaged.fabric.leaf_uids()}
        writes = {uid: tcam.writes for uid, tcam in tcams.items()}
        restore_tcam(damaged.fabric, snapshot)
        assert {uid: tcam.writes - writes[uid] for uid, tcam in tcams.items()} == {
            uid: 1 for uid in tcams
        }
        assert {uid: tcam.rules() for uid, tcam in tcams.items()} == {
            uid: list(entries.values()) for uid, entries in snapshot.items()
        }

    @pytest.mark.parametrize("evict", [False, True])
    def test_a_capacity_limited_table_rejects_the_same_rules(self, evict):
        snapshot = snapshot_tcam(three_tier_scenario().fabric)
        bulk, naive = self._damaged(3, evict), self._damaged(3, evict)
        restore_tcam(bulk.fabric, snapshot)
        _restore_rule_by_rule(naive.fabric, snapshot)
        tables = _tables(bulk.fabric)
        assert tables == _tables(naive.fabric)
        assert any(rejected or evicted for _, _, rejected, evicted in tables.values())


class TestTrial:
    """The §VI trial every figure and every campaign cell runs."""

    @pytest.fixture
    def systems(self, deployed_testbed):
        controller = deployed_testbed.controller
        deployed_testbed.restore()
        yield {
            name: ScoutSystem(controller, localizer=localizer, include_switch_risks=False)
            for name, localizer in make_localizers(controller).items()
        }
        deployed_testbed.restore()

    def test_inject_past_the_window_then_one_report_for_every_system(
        self, deployed_testbed, systems
    ):
        controller = deployed_testbed.controller
        earlier = max(record.timestamp for record in controller.change_log)
        injector, reports = run_trial(
            controller,
            systems,
            lambda injector: injector.inject_random_faults(2),
            "controller",
            rng=random.Random(4),
        )
        assert len(injector.injected) == 2
        assert all(f.injected_at - earlier > CHANGE_WINDOW for f in injector.injected)
        assert set(reports) == set(systems)
        equivalence = reports["SCOUT"].equivalence
        assert not equivalence.equivalent
        assert all(report.equivalence is equivalence for report in reports.values())

    def test_a_trial_that_injects_nothing_is_still_checked_and_localized(
        self, deployed_testbed, systems
    ):
        injector, reports = run_trial(
            deployed_testbed.controller, systems, lambda injector: None, "switch"
        )
        assert injector.injected == []
        assert set(reports) == set(systems)
        clean = next(iter(reports.values())).equivalence
        assert clean.equivalent and clean.results
        for report in reports.values():
            assert report.equivalence is clean and report.scope == "switch"
            assert not report.faulty_objects()


class TestFigure3:
    @pytest.fixture(scope="class")
    def series(self):
        # A reduced cluster keeps the test fast while preserving the shape.
        profile = WorkloadProfile(
            name="mini-cluster", num_leaves=12, num_spines=2, num_vrfs=4,
            num_epgs=150, num_contracts=100, num_filters=50, target_pairs=3000,
            epg_popularity_skew=1.1, vrf_size_skew=1.4, contract_reuse_probability=0.65,
        )
        return run_figure3(profile=profile)

    def test_all_series_present(self, series):
        assert set(series) == {
            ObjectType.SWITCH, ObjectType.VRF, ObjectType.EPG,
            ObjectType.FILTER, ObjectType.CONTRACT,
        }

    def test_vrfs_shared_by_many_more_pairs_than_filters(self, series):
        assert series[ObjectType.VRF].percentile(0.5) > series[ObjectType.FILTER].percentile(0.5)
        assert series[ObjectType.VRF].fraction_at_least(100) >= 0.5

    def test_switches_carry_many_pairs(self, series):
        assert series[ObjectType.SWITCH].fraction_at_least(100) >= 0.8

    def test_fraction_at_least_falls_from_one_to_zero(self, series):
        for one in series.values():
            fractions = [one.fraction_at_least(t) for t in range(0, max(one.pair_counts) + 2)]
            assert fractions == sorted(fractions, reverse=True)
            assert fractions[0] == pytest.approx(1.0) and fractions[-1] == 0.0
            assert one.percentile(0.0) == min(one.pair_counts)
            assert one.percentile(1.0) == max(one.pair_counts)

    def test_format_contains_every_type(self, series):
        text = format_figure3(series)
        for name in ("switch", "vrf", "epg", "filter", "contract"):
            assert name in text


class TestAccuracySweep:
    @pytest.fixture(scope="class")
    def sweep(self, deployed_testbed):
        return run_accuracy_sweep(
            deployed_testbed, scope="controller", fault_counts=(1, 2), runs=4, seed=3
        )

    def test_all_cells_present(self, sweep):
        assert set(sweep.algorithms()) == {"SCOUT", "SCORE-1", "SCORE-0.6"}
        assert sweep.fault_counts() == [1, 2]
        assert all(cell.runs == 4 for cell in sweep.cells)

    def test_scout_recall_dominates_score(self, sweep):
        for count in sweep.fault_counts():
            scout = sweep.cell("SCOUT", count)
            score = sweep.cell("SCORE-1", count)
            assert scout.recall_mean >= score.recall_mean

    def test_metrics_in_range(self, sweep):
        for cell in sweep.cells:
            assert 0.0 <= cell.precision_mean <= 1.0
            assert 0.0 <= cell.recall_mean <= 1.0

    def test_format_table(self, sweep):
        text = format_accuracy_table(sweep, "recall")
        assert "SCOUT" in text and "#faults" in text
        figure = format_accuracy_figure(sweep)  # both panels render
        assert figure.count("#faults") == 2
        assert "precision on the" in figure and "recall on the" in figure

    def test_the_figure_table_runs_each_figure_as_the_paper_sets_it(self, deployed_testbed):
        assert {
            number: (figure["scope"], figure["seed"])
            for number, figure in ACCURACY_FIGURES.items()
        } == {8: ("switch", 8), 9: ("controller", 9), 10: ("controller", 10)}
        figure10 = run_accuracy_figure(10, fault_counts=(1,), runs=2, deployed=deployed_testbed)
        assert figure10.scope == "controller" and figure10.runs == 2
        assert set(figure10.algorithms()) == {"SCOUT", "SCORE-1"}
        by_hand = run_accuracy_sweep(
            deployed_testbed,
            scope="controller",
            fault_counts=(1,),
            runs=2,
            seed=10,
            score_thresholds=(1.0,),
        )
        assert figure10.cells == by_hand.cells
        figure8 = run_accuracy_figure(8, fault_counts=(1,), runs=1, deployed=deployed_testbed)
        assert figure8.scope == "switch"
        assert set(figure8.algorithms()) == {"SCOUT", "SCORE-1", "SCORE-0.6"}

    def test_switch_scope_sweep_runs(self, deployed_testbed):
        sweep = run_accuracy_sweep(
            deployed_testbed, scope="switch", fault_counts=(1,), runs=2, seed=5
        )
        assert sweep.cells
        assert sweep.scope == "switch"


class TestFigure7:
    def test_suspect_reduction_samples(self, deployed_testbed):
        result = run_suspect_reduction(
            deployed_testbed, num_faults=12, bins=TESTBED_BINS, setting="testbed"
        )
        assert len(result.samples) > 0
        for sample in result.samples:
            assert 0.0 < sample.gamma <= 1.0
            assert sample.hypothesis_size <= sample.suspect_count
        assert result.max_hypothesis_size() <= 15
        text = format_figure7(result)
        assert "suspect set reduction" in text

    def test_an_injection_error_breaks_the_figure(self, deployed_testbed, monkeypatch):
        def broken(self, *args, **kwargs):
            raise TypeError("injection is broken")

        monkeypatch.setattr(FaultInjector, "inject_object_fault", broken)
        with pytest.raises(TypeError, match="injection is broken"):
            run_suspect_reduction(deployed_testbed, num_faults=1)
        deployed_testbed.restore()

    def test_bins_constants(self):
        assert TESTBED_BINS[0] == (1, 10)
        assert SIMULATION_BINS[-1] == (500, 1000)


class TestTheFiguresRunTheSystem:
    """Fig. 7-10 drive ``ScoutSystem``; the numbers below were recorded at the
    commit before they did (hand-assembled check → model → augment →
    localize), on a freshly prepared testbed."""

    #: (algorithm, #faults) → (mean precision, mean recall); controller
    #: scope, 6 runs per point, seed 5.
    PINNED_ACCURACY = {
        ("SCORE-0.6", 2): (0.9166666666666666, 0.75),
        ("SCORE-0.6", 5): (0.775, 0.6),
        ("SCORE-1", 2): (0.4583333333333333, 0.3333333333333333),
        ("SCORE-1", 5): (0.6416666666666667, 0.5),
        ("SCOUT", 2): (0.8444444444444444, 0.9166666666666666),
        ("SCOUT", 5): (0.6435846560846561, 0.8666666666666667),
    }
    #: (object, fault kind, #suspects, |hypothesis|); 6 faults, seed 11.
    PINNED_GAMMA = [
        ("filter:testbed/filter-4", "partial", 27, 1),
        ("epg:testbed/epg-21", "full", 5, 2),
        ("epg:testbed/epg-9", "partial", 6, 2),
        ("contract:testbed/contract-18", "partial", 23, 1),
        ("contract:testbed/contract-20", "full", 6, 1),
        ("epg:testbed/epg-27", "partial", 10, 1),
    ]

    def test_accuracy_table_is_the_recorded_one(self):
        deployed = prepare_workload(make_testbed_profile())
        sweep = run_accuracy_sweep(
            deployed, scope="controller", fault_counts=(2, 5), runs=6, seed=5
        )
        table = {
            (cell.algorithm, cell.num_faults): (cell.precision_mean, cell.recall_mean)
            for cell in sweep.cells
        }
        assert table == pytest.approx(self.PINNED_ACCURACY)

    def test_gamma_samples_are_the_recorded_ones(self):
        deployed = prepare_workload(make_testbed_profile())
        result = run_suspect_reduction(
            deployed, num_faults=6, bins=TESTBED_BINS, setting="testbed"
        )
        assert [
            (s.object_uid, s.kind, s.suspect_count, s.hypothesis_size)
            for s in result.samples
        ] == self.PINNED_GAMMA
        for sample in result.samples:
            assert sample.gamma == pytest.approx(
                sample.hypothesis_size / sample.suspect_count
            )

    @pytest.mark.parametrize("scope", ("switch", "controller"))
    def test_a_broken_localize_breaks_the_figures(
        self, deployed_testbed, monkeypatch, scope
    ):
        def broken(self, *args, **kwargs):
            raise RuntimeError("localize is broken")

        monkeypatch.setattr(ScoutSystem, "localize", broken)
        with pytest.raises(RuntimeError, match="localize is broken"):
            run_accuracy_sweep(deployed_testbed, scope=scope, fault_counts=(1,), runs=1)
        if scope == "controller":
            with pytest.raises(RuntimeError, match="localize is broken"):
                run_suspect_reduction(deployed_testbed, num_faults=1)
        deployed_testbed.restore()


class TestScalability:
    def test_scalability_points(self):
        points = run_scalability(leaf_counts=(4, 8), pairs_per_leaf=10, num_faults=3)
        assert [point.leaves for point in points] == [4, 8]
        assert points[1].elements >= points[0].elements
        assert all(point.total_seconds >= 0 for point in points)
        text = format_scalability(points)
        assert "leaves" in text and "localize" in text
