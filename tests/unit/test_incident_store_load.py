"""Loading incidents back: the snapshot restore refuses a bad incident by name.

The store persists one way, inside the monitor snapshot, so
``NetworkMonitor.restore`` is where a malformed incident arrives: it must
be a ``ValueError`` naming the snapshot field and the offending key, never
a half-adopted store.
"""

from __future__ import annotations

import json

import pytest

from repro.online import IncidentStore, NetworkMonitor

GOOD = {
    "incident_id": "INC-0001",
    "switch_uid": "leaf-1",
    "opened_at": 1,
    "updated_at": 2,
}
MALFORMED = "malformed snapshot field 'incidents'"


@pytest.fixture
def rejects(three_tier):
    """Assert a monitor snapshot whose store holds ``entry`` is refused,
    naming the incidents field and every one of ``names``."""
    controller = three_tier.controller
    source = NetworkMonitor(controller)
    source.start()
    document = json.loads(json.dumps(source.snapshot()))
    source.close()

    def check(entry, *names):
        bad = {**document, "incidents": {"incidents": [entry], "counter": 1}}
        monitor = NetworkMonitor(controller)
        with pytest.raises(ValueError, match=MALFORMED) as excinfo:
            monitor.restore(bad)
        for name in names:
            assert name in str(excinfo.value)
        assert not monitor.running and len(monitor.store) == 0

    return check


def _restored(*entries) -> IncidentStore:
    store = IncidentStore()
    store.restore({"incidents": list(entries), "counter": len(entries)})
    return store


class TestStrictLoad:
    def test_unknown_status_names_the_status(self, rejects):
        rejects({**GOOD, "status": "weird"}, "'weird'")

    def test_missing_required_key_names_the_key(self, rejects):
        bad = dict(GOOD)
        del bad["incident_id"]
        rejects(bad, "incident_id")

    def test_non_object_line_is_rejected(self, rejects):
        rejects([1, 2, 3])

    def test_non_string_incident_id_is_rejected_not_crashed(self, rejects):
        rejects({**GOOD, "incident_id": 5}, "incident_id")

    def test_non_string_switch_uid_is_rejected(self, rejects):
        rejects({**GOOD, "switch_uid": 5}, "switch_uid")


class TestResolveIncidentById:
    def test_resolves_exactly_the_addressed_incident(self):
        # A snapshot that violates the one-open-per-switch invariant: two
        # open incidents on leaf-1.  Resolving by id must close the
        # addressed one, not whichever the switch index points at.
        entries = [
            {
                "incident_id": f"INC-000{i}",
                "switch_uid": "leaf-1",
                "opened_at": i,
                "updated_at": i,
            }
            for i in (1, 2)
        ]
        store = _restored(*entries)
        first = store.resolve_incident("INC-0001", time=9)
        assert first is not None and first.incident_id == "INC-0001"
        assert store.get("INC-0002").is_open
        second = store.resolve_incident("INC-0002", time=9)
        assert second is not None and second.incident_id == "INC-0002"
        assert store.active() == []

    def test_unknown_or_closed_id_is_none(self):
        store = IncidentStore()
        assert store.resolve_incident("INC-0404", time=1) is None
        store.open("leaf-1", time=1)
        incident = store.resolve("leaf-1", time=2)
        assert store.resolve_incident(incident.incident_id, time=3) is None


class TestTimestampValidation:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("opened_at", "7"),
            ("opened_at", 7.0),
            ("opened_at", True),
            ("opened_at", None),
            ("updated_at", "later"),
            ("updated_at", False),
            ("resolved_at", "9"),
            ("resolved_at", 9.5),
            ("resolved_at", True),
        ],
    )
    def test_non_integer_timestamp_is_rejected(self, rejects, key, value):
        # Timestamps compare against the logical clock all over the monitor;
        # a smuggled string/float/bool must fail at restore time, by name.
        rejects({**GOOD, key: value}, key)

    def test_null_resolved_at_is_allowed(self):
        store = _restored({**GOOD, "resolved_at": None})
        assert store.active_for("leaf-1") is not None

    def test_missing_timestamp_is_rejected(self, rejects):
        bad = dict(GOOD)
        del bad["opened_at"]
        rejects(bad, "opened_at")


class TestRoundTripStillWorks:
    def test_snapshot_then_restore(self):
        store = IncidentStore()
        store.open("leaf-1", time=1, missing_rules=2, suspects=["vrf:a"])
        resolved = store.open("leaf-2", time=2)
        store.resolve("leaf-2", time=3)
        loaded = IncidentStore()
        loaded.restore(json.loads(json.dumps(store.snapshot())))
        assert len(loaded) == 2
        assert loaded.active_for("leaf-1") is not None
        assert not loaded.get(resolved.incident_id).is_open
