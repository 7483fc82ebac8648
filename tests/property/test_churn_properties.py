"""Property-based tests for the churn subsystem's determinism contracts."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.churn import (
    ChurnDriver,
    ChurnMix,
    ChurnProfile,
    churn_profile_for,
    event_from_dict,
    events_to_jsonl,
    generate_churn_stream,
)

pytestmark = pytest.mark.slow

#: Workloads cheap enough for per-example end-to-end runs.
_seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestStreamProperties:
    @given(seed=_seeds, events=st.integers(min_value=1, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_same_seed_byte_identical_stream(self, seed, events):
        profile = churn_profile_for("small", events=events, seed=seed)
        assert events_to_jsonl(generate_churn_stream(profile)) == events_to_jsonl(
            generate_churn_stream(profile)
        )

    @given(seed=_seeds, events=st.integers(min_value=1, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_jsonl_round_trip_is_lossless(self, seed, events):
        stream = generate_churn_stream(
            churn_profile_for("small", events=events, seed=seed)
        )
        lines = events_to_jsonl(stream).splitlines()
        assert [event_from_dict(json.loads(line)) for line in lines] == stream

    @given(seed=_seeds)
    @settings(max_examples=25, deadline=None)
    def test_stream_length_counts_checkpoints_exactly(self, seed):
        profile = churn_profile_for(
            "small", events=40, seed=seed, checkpoint_interval=7
        )
        stream = generate_churn_stream(profile)
        checkpoints = [e for e in stream if e.kind == "checkpoint"]
        assert len(stream) - len(checkpoints) == 40
        assert stream[-1].kind == "checkpoint"


class TestDriverProperties:
    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=4, deadline=None)
    def test_same_seed_identical_run(self, seed):
        """Same seed ⇒ identical event records, fabric state and fingerprints.

        Both drivers run strict, so this example set doubles as the oracle
        sweep: any incremental-vs-full divergence raises mid-run.
        """
        first = ChurnDriver.for_workload("small", events=20, seed=seed)
        second = ChurnDriver.for_workload("small", events=20, seed=seed)
        report_a = first.run()
        report_b = second.run()
        assert report_a.identity() == report_b.identity()
        # Final fabric state: every switch's TCAM content is identical.
        rules_a = {
            uid: sorted(repr(r.match_key()) for r in sw.deployed_rules())
            for uid, sw in first.controller.fabric.switches.items()
        }
        rules_b = {
            uid: sorted(repr(r.match_key()) for r in sw.deployed_rules())
            for uid, sw in second.controller.fabric.switches.items()
        }
        assert rules_a == rules_b
        # Checkpoint fingerprints line up one by one.
        assert [c.full_fingerprint for c in report_a.checkpoints] == [
            c.full_fingerprint for c in report_b.checkpoints
        ]

    @given(seed=st.integers(min_value=501, max_value=1000))
    @settings(max_examples=4, deadline=None)
    def test_oracle_holds_for_arbitrary_seeds(self, seed):
        report = ChurnDriver.for_workload("small", events=30, seed=seed).run()
        assert report.divergence_count == 0

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=4, deadline=None)
    def test_fault_only_streams_localize_to_ground_truth(self, seed):
        """Interleaved-fault streams still localize to the injector's truth.

        With only fault events in the mix nothing resynchronizes the TCAMs,
        so the effective ground truth is everything injected — and a scoped
        SCOUT run over the final state must recall every faulted object.
        """
        profile = ChurnProfile(
            name="faults-only",
            workload="small",
            events=6,
            checkpoint_interval=3,
            seed=seed,
            mix=ChurnMix(
                policy_add=0.0,
                policy_modify=0.0,
                policy_remove=0.0,
                link_flap=0.0,
                switch_reboot=0.0,
                switch_drain=0.0,
                fault=1.0,
            ),
        )
        driver = ChurnDriver.for_workload("small", events=6, seed=seed)
        driver.profile = profile
        report = driver.run(events=generate_churn_stream(profile))
        assert report.divergence_count == 0
        injected = sorted({fault.object_uid for fault in driver.injector.injected})
        assert report.ground_truth == injected
        scout = driver.system.localize(scope="switch")
        # SCOUT's minimal hypothesis may explain overlapping faults with a
        # shared risk, so it is not required to name *every* injected object;
        # it must explain every observation and never accuse anything outside
        # the missing rules' blast radius.
        final = driver.system.check()
        blast_radius = {
            uid
            for rules in final.missing_rules().values()
            for rule in rules
            for uid in rule.objects()
        }
        hypothesis = {str(risk) for risk in scout.hypothesis.objects()}
        assert hypothesis
        assert hypothesis <= blast_radius
        for switch_uid, per_switch in scout.per_switch.items():
            assert per_switch.unexplained == set(), switch_uid
