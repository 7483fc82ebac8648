"""Benchmark: tracing instrumentation must be ~free when disabled.

The span instrumentation sits inside the hottest loops in the repo (engine
build, per-pair recompiles, blast-radius switch checks).  Its contract is
*near-zero cost when disabled*: one ``ContextVar.get`` plus one attribute
check per ``span()`` call.  This benchmark holds the repo to that contract
on the monitor's hot path, one filter modification followed by
``IncrementalChecker.refresh()``.

A refresh opens about a dozen spans and takes milliseconds, so the cost of
tracing it is a fraction of a percent — far below what timing whole
refreshes against each other can resolve (an A/A comparison of two
untraced legs already differs by 4–30 %).  The share is therefore computed
from its parts, each of which *is* resolvable:

* the cost of one ``with span(...)`` — a tight loop of ``SPAN_CALLS``
  calls, median of ``TRIALS`` — under a ``TraceCollector(enabled=False)``
  and under a recording collector feeding an installed
  :class:`~repro.obs.recorder.FlightRecorder` (the configuration the
  service daemon runs in steady state);
* the number of spans one refresh opens (counted on a traced refresh);
* the median untraced refresh.

``overhead_ratio`` (disabled) and ``recorder_ratio`` (recording + flight
recorder) are ``1 + span cost × spans per refresh ÷ refresh``; each must
stay under its 5 % ceiling.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

from repro.experiments import prepare_workload
from repro.obs import FlightRecorder, TraceCollector, activated, recording, span
from repro.online import IncrementalChecker
from repro.policy.objects import Filter, FilterEntry, ObjectType
from repro.workloads import simulation_profile

from conftest import emit_bench_json, full_scale

OVERHEAD_CEILING = 1.05
RECORDER_CEILING = 1.05
SPAN_CALLS = 100_000
TRIALS = 5


def _modified(target, port):
    return Filter(
        uid=target.uid,
        name=target.name,
        entries=target.entries + (FilterEntry(protocol="tcp", port=port),),
    )


def _disabled():
    return activated(TraceCollector(enabled=False))


@contextmanager
def _recorder():
    collector = TraceCollector()
    flight_recorder = FlightRecorder()
    collector.add_sink(flight_recorder.record_span)
    with activated(collector), recording(flight_recorder):
        yield collector


def _span_seconds(mode) -> float:
    """Median cost of one ``with span(...)`` under a fresh ``mode()`` per trial."""
    trials = []
    for _ in range(TRIALS):
        with mode():
            start = time.perf_counter()
            for _ in range(SPAN_CALLS):
                with span("bench.span", switch="leaf-1"):
                    pass
            trials.append((time.perf_counter() - start) / SPAN_CALLS)
    return statistics.median(trials)


def test_tracing_overhead_on_incremental_refresh():
    deployed = prepare_workload(simulation_profile())
    controller = deployed.controller
    index = deployed.index
    filters = [f for f in deployed.policy.filters() if index.pairs_for_object(f.uid)]
    target = min(filters, key=lambda f: (len(index.pairs_for_object(f.uid)), f.uid))
    tenant_name = deployed.policy.tenant_of(target.uid).name

    checker = IncrementalChecker(controller)
    checker.bootstrap()

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

    rounds = 15 if full_scale() else 9
    port = 52000
    # Warm-up: first refresh after bootstrap pays one-time costs.
    one_refresh(port)
    refresh = statistics.median(one_refresh(port + n) for n in range(1, rounds + 1))
    with _recorder() as collector:
        one_refresh(port + rounds + 1)
    spans_per_refresh = len(collector)
    assert spans_per_refresh > 0

    disabled_span = _span_seconds(_disabled)
    recorder_span = _span_seconds(_recorder)
    overhead_ratio = 1 + disabled_span * spans_per_refresh / refresh
    recorder_ratio = 1 + recorder_span * spans_per_refresh / refresh

    print()
    print(
        f"refresh, no collector:        {refresh * 1e3:8.3f} ms "
        f"({spans_per_refresh} span(s)/refresh)"
    )
    print(
        f"span, disabled collector:     {disabled_span * 1e9:8.0f} ns "
        f"({overhead_ratio:.5f}x of a refresh)"
    )
    print(
        f"span, recording + recorder:   {recorder_span * 1e9:8.0f} ns "
        f"({recorder_ratio:.5f}x of a refresh)"
    )

    assert overhead_ratio < OVERHEAD_CEILING, (
        f"disabled tracing costs {(overhead_ratio - 1) * 100:.2f}% of the "
        f"incremental refresh path (ceiling {(OVERHEAD_CEILING - 1) * 100:.0f}%)"
    )
    assert recorder_ratio < RECORDER_CEILING, (
        f"tracing into the flight recorder costs {(recorder_ratio - 1) * 100:.2f}% "
        f"of the incremental refresh path "
        f"(ceiling {(RECORDER_CEILING - 1) * 100:.0f}%)"
    )

    emit_bench_json(
        "trace_overhead",
        {
            "profile": "simulation",
            "rounds": rounds,
            "span_calls": SPAN_CALLS,
            "trials": TRIALS,
            "baseline_seconds": refresh,
            "disabled_span_seconds": disabled_span,
            "recorder_span_seconds": recorder_span,
            "overhead_ratio": overhead_ratio,
            "recorder_ratio": recorder_ratio,
            "overhead_ceiling": OVERHEAD_CEILING,
            "recorder_ceiling": RECORDER_CEILING,
            "spans_per_refresh": spans_per_refresh,
        },
    )
