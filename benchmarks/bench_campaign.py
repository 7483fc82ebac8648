"""Benchmark: campaign throughput and replay-vs-record overhead.

The campaign engine claims that (a) sweeping a fault × engine grid is cheap
enough to regenerate corpora casually, and (b) replaying a recorded trace
costs about the same as recording it (replay re-runs every cell and only
adds comparison work).  This benchmark runs a small-profile grid spanning
every fault class, records its trace, replays it, and measures:

* **cells/sec** — end-to-end cell throughput of the recording run;
* **replay overhead** — replay wall-clock over record wall-clock.

With ``REPRO_BENCH_JSON`` set, results land in ``BENCH_campaign.json``
(validated by ``check_bench_json.py``).
"""

from __future__ import annotations

import time

from repro.campaign import CampaignSpec, FaultSpec, record_campaign, replay_trace

from conftest import emit_bench_json, full_scale

#: Small-profile cells run in fractions of a second each; the floor only has
#: to catch a pathological regression (e.g. a cell regenerating its workload
#: per engine pass).
CELLS_PER_SECOND_FLOOR = 1.0
#: Replay re-runs every cell plus comparison bookkeeping; it must stay in
#: the same ballpark as recording.
REPLAY_OVERHEAD_CEILING = 2.0


def _bench_spec() -> CampaignSpec:
    seeds = (1, 2, 3, 4) if full_scale() else (1, 2)
    return CampaignSpec(
        name="bench",
        profiles=("small",),
        seeds=seeds,
        faults=(
            FaultSpec("object-fault"),
            FaultSpec("multi-fault", count=3),
            FaultSpec("tcam-overflow"),
            FaultSpec("unresponsive-switch"),
        ),
        engines=("serial", "incremental"),
    )


def test_campaign_record_and_replay(tmp_path):
    spec = _bench_spec()
    trace_path = tmp_path / "bench_campaign.jsonl"

    start = time.perf_counter()
    report = record_campaign(spec, trace_path)
    record_seconds = time.perf_counter() - start
    cells = len(report.results)
    assert cells == len(spec.cells())

    start = time.perf_counter()
    outcome = replay_trace(trace_path)
    replay_seconds = time.perf_counter() - start
    assert outcome.ok, outcome.describe()

    cells_per_second = cells / record_seconds
    replay_overhead = replay_seconds / record_seconds

    payload = {
        "profile": "small",
        "cells": cells,
        "record_seconds": round(record_seconds, 3),
        "replay_seconds": round(replay_seconds, 3),
        "cells_per_second": round(cells_per_second, 2),
        "replay_overhead": round(replay_overhead, 3),
        "fingerprint_chain": report.fingerprint_chain(),
    }
    emitted = emit_bench_json("campaign", payload)
    print(
        f"\ncampaign: {cells} cell(s), {cells_per_second:.1f} cells/s recorded, "
        f"replay overhead {replay_overhead:.2f}x"
    )
    if emitted:
        print(f"wrote {emitted}")

    assert cells_per_second >= CELLS_PER_SECOND_FLOOR, (
        f"campaign throughput regressed: {cells_per_second:.2f} cells/s"
    )
    assert replay_overhead <= REPLAY_OVERHEAD_CEILING, (
        f"replay-vs-record overhead regressed: {replay_overhead:.2f}x"
    )
