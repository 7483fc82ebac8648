"""Regression tests for the indexed ChangeLog (per-object + timestamp indexes)."""

import random

from repro.controller.changelog import ChangeLog, ChangeRecord
from repro.policy.objects import ObjectType
from repro.protocol import Operation


def make_log(entries) -> ChangeLog:
    log = ChangeLog()
    for timestamp, uid in entries:
        log.record(timestamp, uid, ObjectType.FILTER, Operation.MODIFY)
    return log


class TestIndexedQueries:
    def test_records_keep_emission_order(self):
        log = make_log([(5, "a"), (2, "b"), (9, "a")])
        assert [r.timestamp for r in log.records()] == [5, 2, 9]
        assert [r.timestamp for r in log] == [5, 2, 9]
        assert len(log) == 3

    def test_for_object_sorted_by_timestamp(self):
        log = make_log([(5, "a"), (2, "a"), (9, "a"), (7, "b")])
        assert [r.timestamp for r in log.for_object("a")] == [2, 5, 9]
        assert log.for_object("missing") == []

    def test_latest_for_object_and_tie_takes_last_recorded(self):
        log = ChangeLog()
        log.record(4, "a", ObjectType.FILTER, Operation.ADD, detail="first")
        log.record(4, "a", ObjectType.FILTER, Operation.MODIFY, detail="second")
        latest = log.latest_for_object("a")
        assert latest is not None
        assert latest.detail == "second"
        assert log.latest_for_object("missing") is None

    def test_within_keeps_emission_order_among_ties(self):
        log = make_log([(5, "a"), (2, "b"), (5, "c"), (5, "d"), (9, "e")])
        assert [r.object_uid for r in log.within(5, 5)] == ["a", "c", "d"]
        assert [r.object_uid for r in log.within(0, 100)] == ["b", "a", "c", "d", "e"]

    def test_within_is_inclusive(self):
        log = make_log([(5, "a"), (2, "b"), (9, "c")])
        assert [r.timestamp for r in log.within(2, 5)] == [2, 5]
        assert [r.timestamp for r in log.within(6, 8)] == []

    def test_recently_changed_objects_window(self):
        log = make_log([(1, "old"), (8, "a"), (9, "a"), (10, "b")])
        recent = log.recently_changed_objects(now=10, window=2)
        assert set(recent) == {"a", "b"}
        assert recent["a"].timestamp == 9

    def test_last_timestamp_with_out_of_order_records(self):
        log = make_log([(5, "a")])
        log.record(3, "b", ObjectType.FILTER, Operation.ADD)
        assert log.last_timestamp() == 5
        assert ChangeLog().last_timestamp() == 0

    def test_extend_goes_through_the_indexes(self):
        log = make_log([(5, "a")])
        log.extend(
            [
                ChangeRecord(2, "b", ObjectType.EPG, Operation.ADD),
                ChangeRecord(7, "a", ObjectType.FILTER, Operation.DELETE),
            ]
        )
        assert [r.timestamp for r in log.for_object("a")] == [5, 7]
        assert log.latest_for_object("b").timestamp == 2
        assert [r.timestamp for r in log.within(0, 9)] == [2, 5, 7]

    def test_matches_bruteforce_reference_on_random_history(self):
        rng = random.Random(7)
        log = ChangeLog()
        reference = []
        for _ in range(300):
            timestamp = rng.randint(0, 50)
            uid = f"obj-{rng.randint(0, 9)}"
            log.record(timestamp, uid, ObjectType.CONTRACT, Operation.MODIFY)
            reference.append((timestamp, uid))
        # within
        for probe in (0, 10, 25, 50):
            expected = sorted(t for t, _ in reference if 10 <= t <= probe)
            assert [r.timestamp for r in log.within(10, probe)] == expected
        # per-object
        for uid in {u for _, u in reference}:
            expected = sorted(t for t, u in reference if u == uid)
            assert [r.timestamp for r in log.for_object(uid)] == expected
            assert log.latest_for_object(uid).timestamp == expected[-1]
        assert log.last_timestamp() == max(t for t, _ in reference)


class TestListeners:
    def test_record_notifies_subscribers(self):
        log = ChangeLog()
        seen = []
        log.subscribe(seen.append)
        log.record(1, "a", ObjectType.FILTER, Operation.ADD)
        assert [r.object_uid for r in seen] == ["a"]

    def test_unsubscribe_stops_notifications(self):
        log = ChangeLog()
        seen = []
        listener = log.subscribe(seen.append)
        log.unsubscribe(listener)
        log.unsubscribe(listener)  # double-unsubscribe is a no-op
        log.record(1, "a", ObjectType.FILTER, Operation.ADD)
        assert seen == []

    def test_extend_notifies_per_record(self):
        log = ChangeLog()
        seen = []
        log.subscribe(seen.append)
        log.extend(
            [
                ChangeRecord(1, "a", ObjectType.EPG, Operation.ADD),
                ChangeRecord(2, "b", ObjectType.EPG, Operation.ADD),
            ]
        )
        assert [r.object_uid for r in seen] == ["a", "b"]
