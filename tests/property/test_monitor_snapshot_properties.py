"""Property: a monitor restart at any cut of a churn stream is invisible.

The satellite contract for snapshot/restore — snapshot at a
Hypothesis-chosen event index of a seeded churn stream, restore into a
fresh monitor over the same controller, finish the stream: the final
``semantic_fingerprint()`` *and* the incident JSONL journal must be
byte-identical to an uninterrupted run, and the restored monitor must
have run exactly one sweep of its own: the restore's.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.churn import ChurnDriver, generate_churn_stream
from repro.online import NetworkMonitor

pytestmark = pytest.mark.slow

EVENTS = 10


def _drive(driver, events):
    # ChurnDriver.run()'s inner loop, replicated so the stream can be cut.
    for event in events:
        driver.apply(event)
        driver.clock.tick()
        driver.monitor.poll()


def _finish(driver):
    driver.monitor.poll(force=True)  # None when there is nothing to do
    return (
        driver.monitor.report().semantic_fingerprint(),
        driver.monitor.store.to_jsonl(),
    )


class TestRestartInvisibility:
    @given(seed=st.integers(min_value=0, max_value=300), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_snapshot_restore_midstream_is_byte_invisible(self, seed, data):
        baseline = ChurnDriver.for_workload("small", events=EVENTS, seed=seed)
        stream = generate_churn_stream(baseline.profile)
        cut = data.draw(st.integers(min_value=0, max_value=len(stream)), label="cut")
        _drive(baseline, stream)
        expected_verdict, expected_journal = _finish(baseline)
        baseline.close()

        resumed = ChurnDriver.for_workload("small", events=EVENTS, seed=seed)
        _drive(resumed, stream[:cut])
        # JSON round trip: what restores is the serialized document, exactly
        # as a daemon restart would read it back from disk.
        snap = json.loads(json.dumps(resumed.monitor.snapshot(), sort_keys=True))
        resumed.monitor.close()
        resumed.monitor = NetworkMonitor.from_snapshot(resumed.controller, snap)
        _drive(resumed, stream[cut:])
        restored_verdict, restored_journal = _finish(resumed)
        stats = resumed.monitor.stats()
        try:
            # The original bootstrap the snapshot carried, plus the sweep
            # the restore compared the recorded verdicts with.
            assert stats["full_checks"] == 2
            assert stats["restores"] == 1
            assert restored_verdict == expected_verdict
            assert restored_journal == expected_journal
        finally:
            resumed.close()
