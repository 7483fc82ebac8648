"""Round-trip tests: reports → ``to_dict`` → JSON text → ``from_dict``.

The guarantees under test are the ones the operator service relies on:
equivalence fingerprints are byte-identical across the JSON boundary (rule
provenance included) and hypothesis entry order — SCOUT's selection order —
survives.
"""

from __future__ import annotations

import json

from repro.core import Hypothesis, ScoutReport, ScoutSystem
from repro.online import Incident, NetworkMonitor
from repro.rules import TcamRule
from repro.verify import ENGINES, EquivalenceReport
from repro.workloads import three_tier_scenario


def _broken_scenario(port: int = 700):
    scenario = three_tier_scenario()
    victim = scenario.fabric.switch("leaf-2")
    removed = victim.tcam.remove_where(lambda rule: rule.port == port)
    assert removed, "scenario must actually lose rules"
    return scenario


def _wire(payload: dict) -> dict:
    """Force a real JSON boundary (tuples → lists, keys → strings)."""
    return json.loads(json.dumps(payload))


class TestRuleRoundTrip:
    def test_match_key_and_provenance_survive(self):
        scenario = three_tier_scenario()
        rules = scenario.controller.collect_deployed_rules()["leaf-1"]
        for rule in rules:
            restored = TcamRule.from_dict(_wire(rule.to_dict()))
            assert restored == rule
            assert restored.match_key() == rule.match_key()
            assert restored.objects() == rule.objects()


class TestEquivalenceReportRoundTrip:
    def test_fingerprint_survives_json_with_violations(self):
        scenario = _broken_scenario()
        report = ScoutSystem(scenario.controller).check()
        assert not report.equivalent
        wire = _wire(report.to_dict())
        restored = EquivalenceReport.from_dict(wire)
        assert restored.fingerprint() == report.fingerprint()
        assert restored.summary() == report.summary()
        assert restored.missing_rules().keys() == report.missing_rules().keys()
        # A payload without a label reads as the default engine's.
        del wire["switches"]["leaf-1"]["engine"]
        relabelled = EquivalenceReport.from_dict(wire).results["leaf-1"]
        assert relabelled.engine == ENGINES[0]

    def test_payload_embeds_summary_and_fingerprint(self):
        scenario = three_tier_scenario()
        report = ScoutSystem(scenario.controller).check()
        wire = _wire(report.to_dict())
        assert wire["fingerprint"] == report.fingerprint()
        assert wire["summary"] == report.summary()
        assert sorted(wire["switches"]) == sorted(report.results)

    def test_clean_report_round_trip(self):
        scenario = three_tier_scenario()
        report = ScoutSystem(scenario.controller).check()
        restored = EquivalenceReport.from_dict(_wire(report.to_dict()))
        assert restored.equivalent
        assert restored.fingerprint() == report.fingerprint()


class TestScoutReportRoundTrip:
    def test_hypothesis_ordering_and_fingerprint_survive(self):
        scenario = _broken_scenario()
        report = ScoutSystem(scenario.controller).localize(scope="controller")
        assert report.hypothesis.entries, "localization must name suspects"
        restored = ScoutReport.from_dict(_wire(report.to_dict()))
        assert restored.scope == report.scope
        assert restored.consistent == report.consistent
        assert restored.equivalence.fingerprint() == report.equivalence.fingerprint()
        assert [entry.risk for entry in restored.hypothesis.entries] == [
            str(entry.risk) for entry in report.hypothesis.entries
        ]
        assert [entry.reason for entry in restored.hypothesis.entries] == [
            entry.reason for entry in report.hypothesis.entries
        ]

    def test_switch_scope_per_switch_hypotheses_survive(self):
        scenario = _broken_scenario()
        report = ScoutSystem(scenario.controller).localize(scope="switch")
        restored = ScoutReport.from_dict(_wire(report.to_dict()))
        assert sorted(restored.per_switch) == sorted(report.per_switch)
        for uid, hypothesis in report.per_switch.items():
            assert [entry.risk for entry in restored.per_switch[uid].entries] == [
                str(entry.risk) for entry in hypothesis.entries
            ]

    def test_correlation_is_flattened_for_operators(self):
        scenario = _broken_scenario()
        report = ScoutSystem(scenario.controller).localize(scope="controller")
        assert report.correlation is not None
        wire = _wire(report.to_dict())
        findings = wire["correlation"]["findings"]
        assert len(findings) == len(report.correlation.findings)
        for finding in findings:
            assert set(finding) == {"object_uid", "root_cause", "known", "devices"}


class TestHypothesisRoundTrip:
    def test_values_and_unexplained_survive(self):
        scenario = _broken_scenario()
        report = ScoutSystem(scenario.controller).localize(scope="controller")
        hypothesis = report.hypothesis
        restored = Hypothesis.from_dict(_wire(hypothesis.to_dict()))
        assert restored.algorithm == hypothesis.algorithm
        assert restored.iterations == hypothesis.iterations
        assert len(restored.unexplained) == len(hypothesis.unexplained)
        for original, copied in zip(hypothesis.entries, restored.entries):
            assert copied.hit_ratio == original.hit_ratio
            assert copied.coverage_ratio == original.coverage_ratio
            assert copied.iteration == original.iteration
            assert len(copied.explained) == len(original.explained)


class TestMonitorPassAndIncident:
    def test_monitor_pass_reuses_incident_dicts(self):
        scenario = _broken_scenario()
        monitor = NetworkMonitor(scenario.controller, debounce_ticks=1)
        # Attach *after* the fault so the bootstrap pass opens the incident.
        monitor.start()
        baseline = monitor.passes[-1]
        assert baseline.opened
        wire = _wire(baseline.to_dict())
        assert wire["switches_rechecked"] == baseline.switches_rechecked
        assert wire["quiet"] is False
        restored = Incident.from_dict(wire["opened"][0])
        assert restored.to_dict() == baseline.opened[0].to_dict()
        monitor.stop()

    def test_incident_json_round_trip(self):
        incident = Incident(
            incident_id="INC-0042",
            switch_uid="leaf-7",
            opened_at=3,
            updated_at=9,
            missing_rules=4,
            extra_rules=1,
            suspects=["filter:demo/f1", "vrf:demo/v1"],
            fault_codes=["TCAM_OVERFLOW"],
            updates=2,
        )
        restored = Incident.from_dict(_wire(incident.to_dict()))
        assert restored.to_dict() == incident.to_dict()
        assert restored.is_open
