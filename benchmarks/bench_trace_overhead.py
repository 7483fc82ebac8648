"""Benchmark: tracing instrumentation must be ~free when disabled.

The span instrumentation now sits inside the hottest loops in the repo
(engine build, per-pair recompiles, blast-radius switch checks).  Its
contract is *near-zero cost when disabled*: one ``ContextVar.get`` plus
one attribute check per ``span()`` call.  This benchmark holds the repo to
that contract on the same modify→refresh loop ``bench_online.py`` times:

* **baseline** — no collector active anywhere (``span()`` short-circuits
  on the ``None`` contextvar);
* **disabled** — a ``TraceCollector(enabled=False)`` is active, so every
  instrumented call reaches the collector check and bails;
* **enabled** — a recording collector, to document the (acceptable,
  un-gated) price of actually tracing;
* **recorder** — a recording collector plus an installed
  :class:`~repro.obs.recorder.FlightRecorder` (span sink feeding its
  bounded ring), the configuration the service daemon runs in steady
  state.

Two gates: the *disabled* median must be within ``OVERHEAD_CEILING`` of
the baseline, and the *recorder* median must be within
``RECORDER_CEILING`` of plain enabled tracing — the black box may not
make tracing itself expensive.  Rounds for the four modes are interleaved
so clock drift and cache warmth hit all of them equally.
"""

from __future__ import annotations

import statistics
import time

from repro.experiments import prepare_workload
from repro.obs import FlightRecorder, TraceCollector, activated, recording
from repro.online import IncrementalChecker
from repro.policy.objects import Filter, FilterEntry, ObjectType
from repro.workloads import simulation_profile

from conftest import emit_bench_json, full_scale, lax

OVERHEAD_CEILING = 1.05
RECORDER_CEILING = 1.05


def _modified(target, port):
    return Filter(
        uid=target.uid,
        name=target.name,
        entries=target.entries + (FilterEntry(protocol="tcp", port=port),),
    )


def test_disabled_tracing_overhead_on_incremental_refresh():
    deployed = prepare_workload(simulation_profile())
    controller = deployed.controller
    index = deployed.index
    filters = [f for f in deployed.policy.filters() if index.pairs_for_object(f.uid)]
    target = min(filters, key=lambda f: (len(index.pairs_for_object(f.uid)), f.uid))
    tenant_name = deployed.policy.tenant_of(target.uid).name

    checker = IncrementalChecker(controller)
    checker.bootstrap()

    rounds = 15 if full_scale() else 9
    times = {"baseline": [], "disabled": [], "enabled": [], "recorder": []}
    disabled_collector = TraceCollector(enabled=False)

    def one_refresh(port):
        controller.modify_object(
            tenant_name, _modified(target, port), detail="bench overhead change"
        )
        checker.note_policy_change(target.uid, ObjectType.FILTER)
        start = time.perf_counter()
        refreshed = checker.refresh()
        elapsed = time.perf_counter() - start
        assert refreshed
        return elapsed

    port = 52000
    # Warm-up: first refresh after bootstrap pays one-time costs.
    one_refresh(port)
    for _ in range(rounds):
        port += 1
        times["baseline"].append(one_refresh(port))
        port += 1
        with activated(disabled_collector):
            times["disabled"].append(one_refresh(port))
        port += 1
        enabled_collector = TraceCollector()
        with activated(enabled_collector):
            times["enabled"].append(one_refresh(port))
        port += 1
        recorded_collector = TraceCollector()
        flight_recorder = FlightRecorder()
        recorded_collector.add_sink(flight_recorder.record_span)
        with activated(recorded_collector), recording(flight_recorder):
            times["recorder"].append(one_refresh(port))

    baseline = statistics.median(times["baseline"])
    disabled = statistics.median(times["disabled"])
    enabled = statistics.median(times["enabled"])
    recorder = statistics.median(times["recorder"])
    overhead_ratio = disabled / baseline
    enabled_ratio = enabled / baseline
    recorder_ratio = recorder / enabled
    spans_per_refresh = len(enabled_collector)

    print()
    print(f"refresh, no collector:        {baseline * 1e3:8.3f} ms")
    print(
        f"refresh, disabled collector:  {disabled * 1e3:8.3f} ms "
        f"({overhead_ratio:.3f}x)"
    )
    print(
        f"refresh, recording collector: {enabled * 1e3:8.3f} ms "
        f"({enabled_ratio:.3f}x, {spans_per_refresh} span(s)/refresh)"
    )
    print(
        f"refresh, + flight recorder:   {recorder * 1e3:8.3f} ms "
        f"({recorder_ratio:.3f}x vs enabled)"
    )

    # REPRO_BENCH_LAX=1 records the ratio without gating (shared runners).
    if not lax():
        assert overhead_ratio < OVERHEAD_CEILING, (
            f"disabled tracing costs {(overhead_ratio - 1) * 100:.1f}% on the "
            f"incremental refresh path (ceiling {(OVERHEAD_CEILING - 1) * 100:.0f}%)"
        )
        assert recorder_ratio < RECORDER_CEILING, (
            f"the flight recorder costs {(recorder_ratio - 1) * 100:.1f}% on top "
            f"of enabled tracing (ceiling {(RECORDER_CEILING - 1) * 100:.0f}%)"
        )

    emit_bench_json(
        "trace_overhead",
        {
            "profile": "simulation",
            "rounds": rounds,
            "baseline_seconds": baseline,
            "disabled_seconds": disabled,
            "enabled_seconds": enabled,
            "recorder_seconds": recorder,
            "overhead_ratio": overhead_ratio,
            "enabled_ratio": enabled_ratio,
            "recorder_ratio": recorder_ratio,
            "overhead_ceiling": OVERHEAD_CEILING,
            "recorder_ceiling": RECORDER_CEILING,
            "spans_per_refresh": spans_per_refresh,
            "floor_enforced": not lax(),
        },
    )
