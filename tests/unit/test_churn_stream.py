"""Unit tests for churn profiles, events and the stream generator."""

import json

import pytest

from oracles import churn_event_from_dict
from repro.churn import (
    CHURN_EVENT_KINDS,
    Checkpoint,
    ChurnMix,
    ChurnProfile,
    FaultBurst,
    LinkFlap,
    churn_profile_for,
    churn_profile_names,
    events_to_jsonl,
    generate_churn_stream,
)
from repro.workloads.profiles import profile_names


class TestChurnProfiles:
    def test_every_workload_profile_has_a_churn_shape(self):
        assert churn_profile_names() == profile_names()

    def test_unknown_workload_raises_with_known_names(self):
        with pytest.raises(ValueError, match="small"):
            churn_profile_for("nope")

    def test_overrides_flow_through(self):
        profile = churn_profile_for("small", events=64, seed=9, checkpoint_interval=8)
        assert profile.workload == "small"
        assert (profile.events, profile.seed, profile.checkpoint_interval) == (64, 9, 8)

    def test_checkpoint_interval_scales_with_stream_when_unset(self):
        assert churn_profile_for("small", events=400).checkpoint_interval == 25
        assert churn_profile_for("small", events=16).checkpoint_interval == 2

    def test_mix_weights_align_with_kind_order(self):
        mix = ChurnMix(policy_add=7.0, fault=0.0)
        weights = mix.to_dict()
        assert list(weights) == list(CHURN_EVENT_KINDS)
        assert weights["policy-add"] == 7.0
        assert weights["fault"] == 0.0

    def test_degenerate_profiles_rejected(self):
        with pytest.raises(ValueError, match="positive weight"):
            ChurnMix(**{field: 0.0 for field in ChurnMix().__dataclass_fields__})
        with pytest.raises(ValueError, match=">= 1 event"):
            ChurnProfile(name="x", workload="small", events=0)
        with pytest.raises(ValueError, match="flap_down_ticks"):
            ChurnProfile(name="x", workload="small", flap_down_ticks=(3, 1))


class TestStreamGeneration:
    def test_same_seed_is_byte_identical(self):
        profile = churn_profile_for("small", events=150, seed=5)
        first = events_to_jsonl(generate_churn_stream(profile))
        second = events_to_jsonl(generate_churn_stream(profile))
        assert first == second

    def test_different_seeds_differ(self):
        one = events_to_jsonl(generate_churn_stream(churn_profile_for("small", seed=1)))
        two = events_to_jsonl(generate_churn_stream(churn_profile_for("small", seed=2)))
        assert one != two

    def test_checkpoints_interleaved_and_terminal(self):
        profile = churn_profile_for("small", events=40, seed=3, checkpoint_interval=10)
        stream = generate_churn_stream(profile)
        checkpoints = [event for event in stream if isinstance(event, Checkpoint)]
        assert len(checkpoints) == 4
        assert isinstance(stream[-1], Checkpoint)
        non_checkpoint = [e for e in stream if not isinstance(e, Checkpoint)]
        assert len(non_checkpoint) == 40

    def test_seq_numbers_are_contiguous(self):
        stream = generate_churn_stream(churn_profile_for("small", events=25, seed=1))
        assert [event.seq for event in stream] == list(range(1, len(stream) + 1))

    def test_zero_weight_kind_never_drawn(self):
        profile = churn_profile_for("small", events=120, seed=4)
        mix = ChurnMix(switch_reboot=0.0, switch_drain=0.0)
        silent = ChurnProfile(
            name="no-reboots", workload="small", events=120, seed=4, mix=mix
        )
        kinds = {event.kind for event in generate_churn_stream(silent)}
        assert "switch-reboot" not in kinds and "switch-drain" not in kinds
        # Sanity: the default mix does draw them at this length.
        default_kinds = {event.kind for event in generate_churn_stream(profile)}
        assert "switch-reboot" in default_kinds


class TestEventSerialization:
    def test_round_trip_preserves_every_event(self):
        stream = generate_churn_stream(churn_profile_for("small", events=60, seed=8))
        lines = events_to_jsonl(stream).splitlines()
        assert [churn_event_from_dict(json.loads(line)) for line in lines] == stream

    def test_jsonl_is_one_sorted_key_line_per_event(self):
        stream = generate_churn_stream(churn_profile_for("small", events=30, seed=8))
        text = events_to_jsonl(stream)
        assert text.endswith("\n") and text.count("\n") == len(stream)
        for line, event in zip(text.splitlines(), stream):
            assert line == json.dumps(event.to_dict(), sort_keys=True)
        assert events_to_jsonl([]) == ""

    def test_event_dicts_are_json_stable(self):
        event = LinkFlap(seq=3, draw_seed=99, down_ticks=2)
        payload = event.to_dict()
        assert payload["kind"] == "link-flap"
        assert churn_event_from_dict(json.loads(json.dumps(payload))) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown churn event kind"):
            churn_event_from_dict({"kind": "meteor-strike", "seq": 1})

    def test_missing_field_names_the_kind(self):
        with pytest.raises(ValueError, match="policy-add"):
            churn_event_from_dict({"kind": "policy-add", "seq": 1})

    def test_fault_burst_carries_count(self):
        event = FaultBurst(seq=7, draw_seed=1, count=3)
        assert churn_event_from_dict(event.to_dict()) == event
