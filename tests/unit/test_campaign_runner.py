"""Unit tests for campaign cell execution and report aggregation."""

import pytest

from repro.campaign import CampaignSpec, FaultSpec, run_campaign, run_cell
from repro.campaign.spec import CampaignCell
from repro.workloads import large_unresponsive_switch_scenario, resolve_profile


def _cell(fault: FaultSpec, engine: str = "serial", seed: int = 1) -> CampaignCell:
    return CampaignCell(profile="small", seed=seed, fault=fault, engine=engine)


class TestRunCell:
    def test_object_fault_cell_localizes_ground_truth(self):
        result = run_cell(_cell(FaultSpec("object-fault")))
        assert not result.consistent
        assert result.missing_rules > 0
        assert len(result.ground_truth) == 1
        assert result.metrics["recall"] == 1.0
        assert result.ground_truth[0] in result.hypothesis
        assert result.events[0]["event"] == "object-fault"
        assert result.events[0]["object"] == result.ground_truth[0]

    def test_multi_fault_cell_injects_distinct_objects(self):
        result = run_cell(_cell(FaultSpec("multi-fault", count=3)))
        assert len(result.ground_truth) == 3
        assert len(set(result.ground_truth)) == 3
        assert len(result.events) == 3

    def test_unresponsive_switch_cell_blames_the_victim(self):
        result = run_cell(_cell(FaultSpec("unresponsive-switch")))
        assert len(result.ground_truth) == 1
        victim = result.ground_truth[0]
        assert result.events == [{"event": "unresponsive-switch", "switch": victim}]
        assert victim in result.hypothesis
        assert result.metrics["recall"] == 1.0

    def test_unresponsive_switch_cell_silences_the_scenario_victim(self):
        result = run_cell(_cell(FaultSpec("unresponsive-switch"), seed=2))
        scenario = large_unresponsive_switch_scenario(
            resolve_profile("small", seed=2), seed=2
        )
        assert result.ground_truth == [scenario.facts["unresponsive_switch"]]

    def test_tcam_overflow_cell_overflows_a_leaf(self):
        result = run_cell(_cell(FaultSpec("tcam-overflow")))
        assert result.events[0]["event"] == "tcam-capacity"
        assert result.events[0]["capacity"] < result.events[0]["peak_rules"]
        overflow_events = [e for e in result.events if e["event"] == "tcam-overflow"]
        assert overflow_events
        assert result.ground_truth == sorted(e["switch"] for e in overflow_events)
        assert not result.consistent

    def test_cell_results_are_deterministic(self):
        first = run_cell(_cell(FaultSpec("multi-fault", count=2)))
        second = run_cell(_cell(FaultSpec("multi-fault", count=2)))
        assert first.identity() == second.identity()
        assert first.events == second.events

    def test_incremental_engine_matches_serial_verdicts(self):
        serial = run_cell(_cell(FaultSpec("object-fault"), engine="serial"))
        incremental = run_cell(_cell(FaultSpec("object-fault"), engine="incremental"))
        # The incremental checker may label digest-short-circuited clean
        # switches differently (part of the fingerprint), but the verdicts,
        # the missing rules and the localization must agree.
        assert incremental.consistent == serial.consistent
        assert incremental.missing_rules == serial.missing_rules
        assert incremental.hypothesis == serial.hypothesis
        assert incremental.metrics == serial.metrics

    def test_incremental_engine_matches_serial_on_a_cell_that_injects_nothing(self):
        fault = FaultSpec("unresponsive-switch")
        serial = run_cell(_cell(fault, engine="serial"))
        incremental = run_cell(_cell(fault, engine="incremental"))
        assert incremental.missing_rules == serial.missing_rules > 0
        assert incremental.ground_truth == serial.ground_truth
        assert incremental.hypothesis == serial.hypothesis

    def test_churn_cell_runs_stream_with_zero_divergence(self):
        result = run_cell(_cell(FaultSpec("churn", count=25), seed=3))
        summary = result.events[-1]
        assert summary["event"] == "churn-summary"
        assert summary["divergences"] == 0
        assert summary["applied"] + summary["skipped"] == 25
        checkpoints = [e for e in result.events if e["event"] == "checkpoint"]
        assert checkpoints and all(not c["diverged"] for c in checkpoints)
        # The final checkpoint's full-check fingerprint is the cell's verdict
        # (canonical form on both sides).
        assert checkpoints[-1]["fingerprint"] == result.fingerprint

    def test_churn_cell_honors_fault_kinds(self):
        result = run_cell(
            _cell(FaultSpec("churn", count=25, fault_kinds=("full",)), seed=3)
        )
        fault_events = [e for e in result.events if e.get("event") == "fault"]
        assert fault_events, "stream must include fault bursts at this length"
        assert all(kind == "full" for e in fault_events for kind in e["kinds"])

    def test_churn_cell_engines_are_fingerprint_identical(self):
        serial = run_cell(_cell(FaultSpec("churn", count=20), seed=5))
        incremental = run_cell(
            _cell(FaultSpec("churn", count=20), engine="incremental", seed=5)
        )
        # Churn cells record the *canonical* fingerprint precisely so the
        # incrementally maintained state is comparable with a fresh sweep.
        assert serial.fingerprint == incremental.fingerprint
        assert serial.events == incremental.events
        assert serial.hypothesis == incremental.hypothesis

    def test_different_seeds_differ(self):
        one = run_cell(_cell(FaultSpec("object-fault"), seed=1))
        two = run_cell(_cell(FaultSpec("object-fault"), seed=2))
        assert one.fingerprint != two.fingerprint

    def test_identity_excludes_wall_clock(self):
        result = run_cell(_cell(FaultSpec("object-fault")))
        assert result.duration_seconds > 0.0
        assert "duration_seconds" not in result.identity()


class TestRunCampaign:
    @pytest.fixture(scope="class")
    def small_campaign(self):
        spec = CampaignSpec(
            name="unit",
            profiles=("small",),
            seeds=(1, 2),
            faults=(FaultSpec("object-fault"),),
            engines=("serial",),
        )
        return spec, run_campaign(spec)

    def test_runs_every_cell_in_grid_order(self, small_campaign):
        spec, report = small_campaign
        assert [r.cell_id for r in report.results] == [c.cell_id for c in spec.cells()]

    def test_fingerprint_chain_is_stable_and_order_sensitive(self, small_campaign):
        spec, report = small_campaign
        again = run_campaign(spec)
        assert report.fingerprint_chain() == again.fingerprint_chain()
        reversed_report = run_campaign(spec, cells=list(reversed(spec.cells())))
        assert report.fingerprint_chain() != reversed_report.fingerprint_chain()

    def test_summary_aggregates(self, small_campaign):
        _, report = small_campaign
        summary = report.summary()
        assert summary["cells"] == 2
        assert summary["consistent_cells"] == 0
        assert summary["total_missing_rules"] > 0
        assert 0.0 < summary["mean_recall"] <= 1.0
        assert summary["fingerprint_chain"] == report.fingerprint_chain()

    def test_progress_callback_sees_every_cell(self):
        spec = CampaignSpec(name="cb", profiles=("small",), seeds=(4,))
        seen = []
        run_campaign(spec, progress=lambda result: seen.append(result.cell_id))
        assert seen == [cell.cell_id for cell in spec.cells()]

    def test_to_dict_is_json_ready(self, small_campaign):
        import json

        _, report = small_campaign
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["summary"]["cells"] == 2
        assert len(payload["cells"]) == 2
        assert payload["cells"][0]["result"]["fingerprint"]
