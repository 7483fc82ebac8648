"""Benchmark: atomic-predicate engine vs. the exact-BDD serial sweep.

Two claims are measured and gated:

* **throughput** — on the ``datacenter_profile`` fabric (512 leaves, ~90k
  deployed rules) with four object faults injected, a serial full-fabric
  sweep pinned to ``engine="ap"`` must check rules at least
  ``SPEEDUP_FLOOR`` times faster than the same sweep pinned to
  ``engine="bdd"``.  The faults matter: a healthy leaf is settled by
  key-set identity without reaching the engine, so a healthy fabric would
  time 512 identity proofs; ``identity_proofs`` / ``dispatched`` in
  ``BENCH_ap.json`` say how one timed sweep split.  The AP engine replaces
  per-switch ROBDD reconstruction with the leaf's key difference: a
  ``(vrf, src, dst)`` triple whose allow keys are all exact is decided on
  its keys, and only a triple where a wildcard can overlap another key
  gets integer bitset regions over one monotone atom table.  The generated
  fabrics hold no wildcard filter entry, so every triple the faults touch
  is decided on its keys — the sweep's ``decided_triples`` /
  ``touched_triples`` (``verify.ap.build`` counters) are printed — and the
  timed sweep measures that route, two orders of magnitude ahead.
* **identity** — the AP report's :meth:`EquivalenceReport.semantic_fingerprint`
  must be byte-identical to the BDD oracle's on the timed fabric and on
  the other paper profiles (testbed, simulation, production-cluster), all
  with faults injected so the reports are non-trivial: a wrong answer is
  never excused by a fast one.
"""

from __future__ import annotations

import os
import random
import statistics
import time

from repro.core import ScoutSystem
from repro.experiments import prepare_workload
from repro.faults.injector import FaultInjector
from repro.obs import TraceCollector, activated
# ``testbed_profile`` is imported under an alias: its name matches pytest's
# ``test*`` collection pattern and would otherwise be run as a test.
from repro.workloads import datacenter_profile, production_cluster_profile
from repro.workloads import simulation_profile
from repro.workloads import testbed_profile as paper_testbed_profile

from conftest import emit_bench_json, full_scale

SPEEDUP_FLOOR = 10.0
FAULTS = 4


def _faulted(profile):
    """``profile`` deployed, with the same seeded object faults every run."""
    deployed = prepare_workload(profile)
    injector = FaultInjector(deployed.controller, rng=random.Random(2018))
    injector.inject_random_faults(FAULTS)
    return deployed


def test_ap_sweep_vs_bdd_serial():
    rounds = 3 if full_scale() else 2
    timed_profile = datacenter_profile()
    dep = _faulted(timed_profile)
    system = ScoutSystem(dep.controller)
    total_switches = len(dep.controller.fabric.switches)

    bdd_times = []
    for _ in range(rounds):
        start = time.perf_counter()
        bdd_report = system.check(engine="bdd")
        bdd_times.append(time.perf_counter() - start)
    bdd_seconds = statistics.median(bdd_times)

    # One untimed AP round builds the atom table; the timed rounds then run
    # in the steady state a long-lived monitor actually sees (re-observation
    # of an unchanged fabric is a no-op patch).  They sweep through the
    # checker itself: a repeat ``system.check()`` of an unchanged fabric
    # answers every switch from its held verdicts and would time no engine.
    warmup_report = system.check(engine="ap")
    assert warmup_report.semantic_fingerprint() == bdd_report.semantic_fingerprint()
    logical = dep.controller.logical_rules()
    deployed = dep.controller.collect_deployed_rules()
    before = system.stats()
    ap_times = []
    for _ in range(rounds):
        start = time.perf_counter()
        ap_report = system.checker.check_network(logical, deployed)
        ap_times.append(time.perf_counter() - start)
    ap_seconds = statistics.median(ap_times)
    assert ap_report.semantic_fingerprint() == bdd_report.semantic_fingerprint()
    after = system.stats()
    identity_proofs = (after["identity_proofs"] - before["identity_proofs"]) // rounds
    dispatched = (after["dispatched"] - before["dispatched"]) // rounds
    assert identity_proofs + dispatched == total_switches
    assert dispatched > 0, "the timed fabric must reach the engine"
    # One more sweep, traced and untimed: how the dispatched leaves' triples
    # were decided (on their keys, or by regions).
    collector = TraceCollector()
    with activated(collector):
        system.checker.check_network(logical, deployed)
    builds = [s.counters for s in collector.spans() if s.name == "verify.ap.build"]
    decided = sum(counters.get("decided_triples", 0) for counters in builds)
    touched = sum(counters.get("touched_triples", 0) for counters in builds)

    total_rules = sum(
        result.logical_count + result.deployed_count
        for result in ap_report.results.values()
    )
    rules_per_second = total_rules / ap_seconds
    rules_per_second_bdd = total_rules / bdd_seconds
    speedup = bdd_seconds / ap_seconds
    atom_stats = system.checker.atoms.stats()

    # Identity on the other paper profiles, BDD oracle vs. AP, faults injected.
    identity_profiles = {timed_profile.name: ap_report.semantic_fingerprint()}
    paper_profiles = (
        paper_testbed_profile(),
        simulation_profile(),
        production_cluster_profile(),
    )
    for profile in paper_profiles:
        with ScoutSystem(_faulted(profile).controller) as faulty_system:
            oracle_fp = faulty_system.check(engine="bdd").semantic_fingerprint()
            ap_fp = faulty_system.check(engine="ap").semantic_fingerprint()
        assert oracle_fp == ap_fp, f"AP report diverged from BDD on {profile.name}"
        identity_profiles[profile.name] = oracle_fp

    print()
    print(
        f"fabric:                      {total_switches} switches, "
        f"{total_rules} rules"
    )
    print(
        f"serial BDD sweep:            {bdd_seconds:8.2f} s  "
        f"({rules_per_second_bdd:,.0f} rules/s)"
    )
    print(
        f"serial AP sweep:             {ap_seconds * 1e3:8.2f} ms "
        f"({rules_per_second:,.0f} rules/s)"
    )
    print(f"speedup:                     {speedup:8.2f}x  (floor {SPEEDUP_FLOOR}x)")
    print(
        f"one AP sweep:                {identity_proofs} identity proofs, "
        f"{dispatched} dispatched"
    )
    print(
        f"atom table:                  {atom_stats['atoms_per_triple']} atoms/triple, "
        f"{atom_stats['patches']} patches, "
        f"{atom_stats['noop_observations']} no-op observations"
    )
    print(
        f"one AP sweep's triples:      {decided:.0f} decided on keys, "
        f"{touched:.0f} by regions"
    )
    print(f"identity profiles verified:  {', '.join(identity_profiles)}")
    assert speedup >= SPEEDUP_FLOOR, (
        f"AP sweep only {speedup:.2f}x faster than the BDD sweep "
        f"(floor {SPEEDUP_FLOOR}x)"
    )

    emit_bench_json(
        "ap",
        {
            "profile": "datacenter-512",
            "rounds": rounds,
            "total_switches": total_switches,
            "total_rules": total_rules,
            "faults": FAULTS,
            "identity_proofs": identity_proofs,
            "dispatched": dispatched,
            "bdd_seconds": bdd_seconds,
            "ap_seconds": ap_seconds,
            "rules_per_second": rules_per_second,
            "rules_per_second_bdd": rules_per_second_bdd,
            "speedup": speedup,
            "cpu_count": os.cpu_count() or 1,
            "reports_identical": True,
            "identity_profiles": sorted(identity_profiles),
            "atom_table": atom_stats,
        },
    )
    system.close()
