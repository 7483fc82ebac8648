#!/usr/bin/env python3
"""Live monitoring: detect, localize and resolve a fault without a sweep.

The batch use cases run SCOUT *after the fact*: an operator notices a
problem and launches a full-network L-T check.  This scenario instead
attaches a :class:`~repro.online.NetworkMonitor` to the running 3-tier
deployment and lets faults announce themselves:

1. the monitor bootstraps once (the only full sweep it will ever run);
2. a TCAM glitch silently drops leaf-2's App-DB rules — the table's write
   hook publishes one ``TcamChanged`` event for the whole loss;
3. after the debounce window, one ``poll()`` re-checks *only leaf-2*,
   runs a scoped SCOUT localization and opens an incident naming the
   policy objects involved;
4. the fault worsens (more rules lost, the switch stops responding) —
   the same incident is updated and tagged with the device fault code;
5. the agent resyncs its TCAM — the next poll sees a clean digest and
   resolves the incident.

Run with:  python examples/usecase_live_monitoring.py
"""

from __future__ import annotations

from repro.online import NetworkMonitor
from repro.workloads import three_tier_scenario


def main() -> None:
    scenario = three_tier_scenario()
    controller = scenario.controller
    clock = controller.clock

    monitor = NetworkMonitor(controller, debounce_ticks=2)
    baseline = monitor.start()
    print("== Monitor attached ==")
    print(f"  baseline consistent : {baseline.equivalent}")
    print(f"  switches            : {sorted(baseline.results)}")
    print(f"  open incidents      : {len(monitor.store.active())}")

    # -- Act 1: a TCAM glitch drops the App-DB rules on leaf-2 ---------- #
    victim = scenario.fabric.switch("leaf-2")
    lost = victim.tcam.remove_where(lambda rule: rule.port == 700)
    print(f"\n== t={clock.peek()}: TCAM glitch on leaf-2 ({len(lost)} rule(s) vanish) ==")
    print(f"  pending events      : {monitor.pending_events()}")
    assert monitor.poll() is None, "burst must settle before the monitor reacts"
    clock.tick(2)

    detection = monitor.poll()
    print(detection.describe())

    # -- Act 2: the fault worsens ---------------------------------------- #
    victim.tcam.remove_where(lambda rule: rule.port == 80)
    victim.make_unresponsive()
    clock.tick(2)
    update = monitor.poll()
    print(f"\n== t={clock.peek()}: more rules lost, switch unresponsive ==")
    print(update.describe())
    incident = monitor.store.active_for("leaf-2")
    print(f"  fault codes on file : {incident.fault_codes}")

    # -- Act 3: repair ---------------------------------------------------- #
    victim.restore()
    victim.sync_tcam()
    clock.tick(2)
    resolution = monitor.poll()
    print(f"\n== t={clock.peek()}: agent restored and TCAM resynced ==")
    print(resolution.describe())

    # -- Outcome ----------------------------------------------------------- #
    stats = monitor.stats()
    print("\n== Outcome ==")
    print(f"  full sweeps run     : {stats['full_checks']} (bootstrap only)")
    print(f"  scoped checks       : {stats['switch_checks']}")
    print(f"  digest short-circuit: {stats['digest_short_circuits']}")
    print(f"  events seen         : {stats['events_seen']}")
    print(f"  open incidents      : {stats['active_incidents']}")
    print("\n== Incident journal (JSONL) ==")
    print(monitor.store.to_jsonl())

    assert stats["full_checks"] == 1, "detection must not trigger a full-network sweep"
    assert stats["active_incidents"] == 0
    monitor.stop()


if __name__ == "__main__":
    main()
