"""Benchmark: partitioned online monitor vs the single-checker baseline.

The partitioned monitor claims that sharding the incremental checker by
switch ownership turns a fabric-wide event storm — every leaf losing and
regaining its TCAM — into per-partition work that runs concurrently, while
producing the *same* verdicts in the same order as one checker would.

The benchmark soaks both configurations over identical wipe/resync cycles
on the simulation profile (10 leaves, ~63k bus events per cycle, so two
cycles clear the 100k-event floor):

* **single** — ``partitions=1``, no ``max_workers``: the default, one
  checker refreshed in the polling thread;
* **partitioned** — ``partitions=4, max_workers=4``: four ownership
  shards refreshed on four concurrent threads, each checker re-checking
  its two or three leaves in place on its own atom table (no shard plan,
  no worker memo, no process: the online path has none).

Reported per configuration: ``events_per_second`` over the whole soak
(publication + polls), with ``speedup`` = partitioned / single.  The
final network verdict of both runs must agree (``fingerprint_match`` is
asserted LAX or not — partitioning is an execution strategy, never an
oracle change).

With ``REPRO_BENCH_JSON`` set, results land in ``BENCH_monitor_shard.json``
(validated by ``check_bench_json.py`` via the ``events_per_second`` gate
key).  ``speedup`` is recorded, not gated: while one leaf of ten was
BDD-checked on every storm the partitioned run won ~2.5x; with every leaf
on the atomic-predicate engine a refresh is too cheap to repay the thread
fan-out, and the single checker is the faster one (~0.8–0.9x on 2 cores).
"""

from __future__ import annotations

import os
import time

from repro.experiments import prepare_workload
from repro.online.monitor import NetworkMonitor
from repro.workloads import simulation_profile

from conftest import emit_bench_json, full_scale

PROFILE = "simulation"
#: The ISSUE's soak floor: every configuration must absorb at least this
#: many bus events end to end.
EVENT_FLOOR = 100_000
PARTITIONS = 4


def _soak(monitor, controller, cycles: int) -> dict:
    """Drive ``cycles`` wipe/resync storms through a freshly started monitor.

    Each cycle wipes every leaf TCAM (a RuleLost per deployed rule), polls,
    reinstalls via ``sync_tcam`` (a RuleInstalled per rule), and polls
    again — the worst case for the checker: every switch dirty, twice.
    """
    leaves = sorted(controller.fabric.leaf_uids())
    monitor.start()
    baseline_events = monitor.bus.total_events()
    start = time.perf_counter()
    for _ in range(cycles):
        for uid in leaves:
            controller.fabric.switch(uid).tcam.remove_where(lambda rule: True)
        controller.clock.tick(2)
        monitor.poll(force=True)
        for uid in leaves:
            controller.fabric.switch(uid).sync_tcam()
        controller.clock.tick(2)
        monitor.poll(force=True)
    seconds = time.perf_counter() - start
    events = monitor.bus.total_events() - baseline_events
    fingerprint = monitor.report().semantic_fingerprint()
    stats = monitor.stats()
    monitor.close()
    return {
        "events": events,
        "seconds": seconds,
        "events_per_second": events / seconds,
        "fingerprint": fingerprint,
        "passes": stats["passes"],
        "incidents": stats["incidents"],
    }


def test_partitioned_monitor_throughput():
    cycles = 4 if full_scale() else 2
    cores = os.cpu_count() or 1

    deployed = prepare_workload(simulation_profile())
    controller = deployed.controller
    single = _soak(NetworkMonitor(controller), controller, cycles)
    partitioned = _soak(
        NetworkMonitor(controller, partitions=PARTITIONS, max_workers=PARTITIONS),
        controller,
        cycles,
    )

    speedup = partitioned["events_per_second"] / single["events_per_second"]
    payload = {
        "profile": PROFILE,
        "cycles": cycles,
        "partitions": PARTITIONS,
        "cores": cores,
        "events": partitioned["events"],
        "events_per_second": round(partitioned["events_per_second"], 2),
        "single_events_per_second": round(single["events_per_second"], 2),
        "speedup": round(speedup, 2),
        "monitor_passes": partitioned["passes"],
        "incidents": partitioned["incidents"],
        "fingerprint_match": partitioned["fingerprint"] == single["fingerprint"],
        "final_fingerprint": partitioned["fingerprint"],
    }
    emitted = emit_bench_json("monitor_shard", payload)
    print(
        f"\nmonitor shard: {partitioned['events']} event(s)/run over {cycles} "
        f"cycle(s); partitioned {partitioned['events_per_second']:.0f} ev/s vs "
        f"single {single['events_per_second']:.0f} ev/s = {speedup:.2f}x"
    )
    if emitted:
        print(f"wrote {emitted}")

    assert partitioned["events"] >= EVENT_FLOOR, (
        f"soak too small: {partitioned['events']} events < {EVENT_FLOOR}"
    )
    assert payload["fingerprint_match"], (
        "partitioned monitor diverged from the single-checker verdict"
    )
