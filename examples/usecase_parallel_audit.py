#!/usr/bin/env python3
"""Parallel full-fabric audit: shard the sweep, keep the answer identical.

The online monitor (see ``usecase_live_monitoring.py``) avoids full sweeps,
but operators still run them: after a controller upgrade, before a change
freeze, whenever trust in the incremental state is gone.  On a production
fabric that audit is CPU-bound work, embarrassingly parallel across
switches — exactly what ``repro.parallel`` shards:

1. a mid-size fabric (64 leaves) is deployed and then damaged: one rack's
   worth of leaves loses the rules of two policy objects;
2. the audit runs twice — the classic serial ``ScoutSystem.check()`` and
   the sharded ``check(parallel=True, max_workers=4)`` — and the two
   reports are *byte-identical* (same fingerprint, provenance included);
3. the shard plan is printed: LPT balancing puts the border-leaf-sized
   rule sets apart, so no worker becomes the straggler;
4. SCOUT consumes the merged parallel report unchanged and names the
   damaged objects.

Run with:  python examples/usecase_parallel_audit.py
"""

from __future__ import annotations

import random
import time

from repro.core import ScoutSystem
from repro.experiments import prepare_workload
from repro.faults.injector import FaultInjector
from repro.parallel import plan_for_report
from repro.workloads import scaled_profile, testbed_profile

WORKERS = 4


def main() -> None:
    profile = scaled_profile(testbed_profile(), 64, name="audit-fabric")
    deployed = prepare_workload(profile)
    controller = deployed.controller
    print("== Fabric deployed ==")
    print(f"  leaves              : {len(controller.fabric.switches)}")
    rules = controller.collect_deployed_rules()
    print(f"  deployed rules      : {sum(len(r) for r in rules.values())}")

    # -- Act 1: a rack loses two objects' rules --------------------------- #
    injector = FaultInjector(controller, rng=random.Random(42))
    rack = [f"leaf-{i}" for i in range(1, 9)]
    faults = injector.inject_random_faults(2, switches=rack)
    truth = sorted(injector.ground_truth())
    print(f"\n== Faults injected on rack {rack[0]}..{rack[-1]} ==")
    for fault in faults:
        print(f"  {fault.describe()}")

    # -- Act 2: serial vs. sharded audit ---------------------------------- #
    system = ScoutSystem(controller)
    start = time.perf_counter()
    serial_report = system.check()
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel_report = system.check(parallel=True, max_workers=WORKERS)
    parallel_seconds = time.perf_counter() - start
    print("\n== Audit ==")
    print(f"  serial sweep        : {serial_seconds * 1e3:8.1f} ms")
    print(f"  sharded sweep ({WORKERS}w)  : {parallel_seconds * 1e3:8.1f} ms")
    print(f"  serial fingerprint  : {serial_report.fingerprint()[:16]}…")
    print(f"  sharded fingerprint : {parallel_report.fingerprint()[:16]}…")
    assert serial_report.fingerprint() == parallel_report.fingerprint()
    print(
        f"  missing rules       : {parallel_report.total_missing()} "
        f"on {len(parallel_report.switches_with_violations())} switch(es)"
    )

    # -- Act 3: the shard plan -------------------------------------------- #
    plan = plan_for_report(parallel_report, WORKERS)
    print("\n== Shard plan (LPT by rule count) ==")
    print(plan.describe())

    # -- Act 4: SCOUT on the merged report -------------------------------- #
    result = system.localize(
        scope="controller", report=parallel_report, shard_plan=plan
    )
    blamed = sorted(str(risk) for risk in result.faulty_objects())
    print("\n== SCOUT hypothesis (from the merged parallel report) ==")
    print(f"  ground truth        : {truth}")
    print(f"  blamed objects      : {blamed}")
    assert set(truth) & result.faulty_objects(), "SCOUT must find the damage"
    system.close()
    print("\nParallel and serial audits agree; localization unchanged.")


if __name__ == "__main__":
    main()
