#!/usr/bin/env python3
"""Churn soak: a moving network, an online monitor, and a differential oracle.

The batch use cases fault a *static* snapshot.  This scenario keeps the
snapshot moving: a seeded churn stream (tenant onboarding/offboarding,
rolling rule updates, link flaps, switch reboots, maintenance drains, and
interleaved object faults) is applied to a deployed small-profile fabric
while the :class:`~repro.online.NetworkMonitor` consumes the resulting bus
events.  Four things are demonstrated:

1. **stream** — the same profile + seed always expands to byte-identical
   events, so a soak is a reproducible artifact, not a fuzz run;
2. **monitor** — every churn event flows through the live incremental
   checker; the monitor never re-runs a full sweep after its bootstrap;
3. **checkpoint oracle** — at every checkpoint the incremental state must
   be fingerprint-identical (canonical form) to a from-scratch full check,
   and the open incidents must exactly match the violating switches;
4. **campaign replay** — the same run recorded as a ``churn`` campaign
   cell replays byte-identically through the regression-trace machinery.

Run with:  python examples/usecase_churn_soak.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.campaign import CampaignSpec, FaultSpec, record_campaign, replay_trace
from repro.churn import ChurnDriver, events_to_jsonl, generate_churn_stream

EVENTS = 120
SEED = 7


def main() -> None:
    # -- Act 1: a reproducible stream ----------------------------------- #
    driver = ChurnDriver.for_workload("small", events=EVENTS, seed=SEED)
    stream = generate_churn_stream(driver.profile)
    again = events_to_jsonl(generate_churn_stream(driver.profile))
    assert events_to_jsonl(stream) == again, "stream must be byte-identical"
    kinds = {}
    for event in stream:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    print("== Churn stream ==")
    print(f"  profile            : {driver.profile.name} (seed {SEED})")
    print(f"  events             : {len(stream)} (checkpoints included)")
    for kind in sorted(kinds):
        print(f"    {kind:<15}: {kinds[kind]}")

    # -- Act 2: drive it through the live control plane ------------------ #
    report = driver.run(events=stream)
    print("\n== Soak outcome ==")
    print(f"  {report.describe()}")
    stats = report.monitor_stats
    print(f"  monitor full sweeps : {stats['full_checks']} (bootstrap only)")
    print(f"  scoped re-checks    : {stats['switch_checks']}")
    print(f"  digest short-circuit: {stats['digest_short_circuits']}")
    # What the monitor's compile requests cost the controller, the one
    # incremental compiler of L (``Controller.compile_stats()`` deltas).
    print(f"  index derivations   : {stats['index_patches']} (one per edited policy)")
    print(f"  cold index builds   : {stats['index_rebuilds']}")
    print(f"  pairs re-rendered   : {stats['pair_recompiles']}")

    # -- Act 3: the differential oracle ---------------------------------- #
    print("\n== Checkpoints (incremental vs. from-scratch) ==")
    for checkpoint in report.checkpoints:
        state = "identical" if checkpoint.ok else "DIVERGED"
        print(
            f"  seq {checkpoint.seq:>4}: {checkpoint.full_fingerprint[:16]} "
            f"{state}; violating={checkpoint.violating_switches} "
            f"incidents={checkpoint.incident_switches}"
        )
    assert report.divergence_count == 0
    print(f"  outstanding faulty objects: {report.ground_truth or 'none'}")

    # -- Act 4: the same run as a replayable campaign trace --------------- #
    spec = CampaignSpec(
        name="churn-example",
        profiles=("small",),
        seeds=(SEED,),
        faults=(FaultSpec("churn", count=EVENTS),),
        engines=("serial",),
    )
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "churn_example.jsonl"
        recorded = record_campaign(spec, trace_path)
        outcome = replay_trace(trace_path)
        print("\n== Campaign record/replay ==")
        print(f"  chain    : {recorded.fingerprint_chain()[:16]}")
        print(f"  replay   : {outcome.describe()}")
        assert outcome.ok, outcome.describe()

    print(f"\n{EVENTS} events of churn, and the incremental state never drifted.")


if __name__ == "__main__":
    main()
