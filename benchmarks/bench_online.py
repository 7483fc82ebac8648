"""Benchmark: incremental re-validation vs. full-network recheck.

The online monitoring subsystem claims that reacting to a single-object
policy change only needs to re-validate the switches inside the object's
blast radius.  This benchmark deploys the simulation-profile workload and
compares:

* **full** — one ``ScoutSystem.check()``: recompile every logical rule,
  snapshot every TCAM, compare network-wide (what the batch pipeline pays
  per query);
* **incremental** — one ``IncrementalChecker.refresh()`` after a single
  filter modification: the controller derives its index (no re-index) and
  re-renders the dependent pairs, the checker re-checks the blast radius;
* **monitor poll** — the same change through ``NetworkMonitor.poll()``,
  which additionally runs scoped SCOUT localization and incident
  bookkeeping (the full detection-to-diagnosis path).

What is gated is the *work*: one bootstrap sweep ever, and a blast radius
smaller than the fabric.  The wall-clock ratio is recorded, not gated —
while the full sweep rebuilt a BDD for the one small leaf it was ~10x;
with the atomic-predicate engine the sweep itself costs little more than
recompiling the policy, so the ratio (~3x on ten leaves) is now set by how
much of the fabric the change touches.  With ``REPRO_BENCH_JSON`` set,
results land in ``BENCH_online.json``.
"""

from __future__ import annotations

import statistics
import time

from repro.core import ScoutSystem
from repro.experiments import prepare_workload
from repro.online import IncrementalChecker, NetworkMonitor
from repro.policy.objects import Filter, FilterEntry, ObjectType
from repro.workloads import simulation_profile

from conftest import emit_bench_json, full_scale


def _low_fanout_filter(deployed):
    """A filter with few dependent pairs (a realistic single-object change)."""
    index = deployed.index
    filters = [f for f in deployed.policy.filters() if index.pairs_for_object(f.uid)]
    return min(filters, key=lambda f: (len(index.pairs_for_object(f.uid)), f.uid))


def _modified(target, port):
    return Filter(
        uid=target.uid,
        name=target.name,
        entries=target.entries + (FilterEntry(protocol="tcp", port=port),),
    )


def test_incremental_recheck_vs_full_sweep():
    deployed = prepare_workload(simulation_profile())
    controller = deployed.controller
    system = ScoutSystem(controller)
    rounds = 5 if full_scale() else 3

    full_times = []
    for _ in range(rounds):
        start = time.perf_counter()
        report = system.check()
        full_times.append(time.perf_counter() - start)
    assert report.equivalent
    full_seconds = statistics.median(full_times)

    target = _low_fanout_filter(deployed)
    tenant_name = deployed.policy.tenant_of(target.uid).name
    blast_pairs = len(deployed.index.pairs_for_object(target.uid))
    total_switches = len(controller.fabric.switches)

    # Incremental checker alone: the apples-to-apples comparison to check().
    incremental = IncrementalChecker(controller)
    incremental.bootstrap()
    incremental_times = []
    rechecked_counts = []
    for round_no in range(rounds):
        change = _modified(target, 60000 + round_no)
        start = time.perf_counter()
        controller.modify_object(tenant_name, change, detail="bench single-object change")
        incremental.note_policy_change(target.uid, ObjectType.FILTER)
        refreshed = incremental.refresh()
        incremental_times.append(time.perf_counter() - start)
        assert refreshed and all(not r.equivalent for r in refreshed.values())
        rechecked_counts.append(len(refreshed))
    incremental_seconds = statistics.median(incremental_times)

    # The full monitor path on top: scoped SCOUT + incident lifecycle.
    monitor = NetworkMonitor(controller, debounce_ticks=0)
    monitor.start()
    poll_times = []
    for round_no in range(rounds):
        change = _modified(target, 61000 + round_no)
        start = time.perf_counter()
        controller.modify_object(tenant_name, change, detail="bench single-object change")
        result = monitor.poll(force=True)
        poll_times.append(time.perf_counter() - start)
        assert result is not None and result.switches_rechecked
    poll_seconds = statistics.median(poll_times)

    speedup = full_seconds / incremental_seconds
    poll_speedup = full_seconds / poll_seconds
    print()
    print(f"full ScoutSystem.check():        {full_seconds * 1e3:8.2f} ms")
    print(f"incremental checker refresh():   {incremental_seconds * 1e3:8.2f} ms  ({speedup:.1f}x)")
    print(f"monitor poll (check+SCOUT+inc.): {poll_seconds * 1e3:8.2f} ms  ({poll_speedup:.1f}x)")
    print(
        f"blast radius:                    {max(rechecked_counts)}/{total_switches} switches "
        f"({blast_pairs} dependent pair(s) of {target.uid})"
    )
    print(f"checker stats:                   {incremental.stats()}")

    # The incremental path must never sweep the whole fabric again.
    assert incremental.full_checks == 1
    assert monitor.stats()["full_checks"] == 1
    assert max(rechecked_counts) < total_switches

    emit_bench_json(
        "online",
        {
            "profile": "simulation",
            "rounds": rounds,
            "full_check_seconds": full_seconds,
            "incremental_refresh_seconds": incremental_seconds,
            "monitor_poll_seconds": poll_seconds,
            "speedup": speedup,
            "poll_speedup": poll_speedup,
            "total_switches": total_switches,
            "max_switches_rechecked": max(rechecked_counts),
            "checker_stats": incremental.stats(),
            "monitor_stats": monitor.stats(),
        },
    )
