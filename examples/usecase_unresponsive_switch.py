#!/usr/bin/env python3
"""Use cases 2 and 3 of §V-B: an unresponsive switch during policy pushes.

Default mode (use case 2): the 3-tier policy is deployed, the leaf hosting
the App tier silently stops responding, and further 'add filter' changes
never reach it.  SCOUT localizes the late filters and the correlation engine
ties them to the switch-unreachable fault recorded at the controller.

``--large`` mode (use case 3): a synthetic policy with hundreds of EPG pairs
is pushed while one heavily loaded leaf is down, producing a flood of missing
rules; SCOUT collapses them to a handful of objects and names the
unresponsive switch as the root cause.

Run with:  python examples/usecase_unresponsive_switch.py [--large]
"""

from __future__ import annotations

import argparse

from repro.core import ScoutSystem
from repro.workloads import (
    large_unresponsive_switch_scenario,
    unresponsive_switch_scenario,
)


def run_small() -> None:
    scenario = unresponsive_switch_scenario(extra_filters=6)
    controller = scenario.controller
    victim = scenario.facts["unresponsive_switch"]

    print("== Scenario: filters added while a switch is down ==")
    print(f"  unresponsive switch: {victim}")
    print(f"  filters added late : {len(scenario.facts['added_filters'])}")

    system = ScoutSystem(controller)
    report = system.localize(scope="controller")
    print("\n== SCOUT report ==")
    print(report.describe())

    print("\n== Outcome ==")
    print(f"  switches with violations: {report.equivalence.switches_with_violations()}")
    if report.correlation:
        for finding in report.correlation.findings:
            print(f"  {finding.describe()}")


def run_large() -> None:
    scenario = large_unresponsive_switch_scenario()
    controller = scenario.controller
    victim = scenario.facts["unresponsive_switch"]

    print("== Scenario: large policy pushed onto an unresponsive switch ==")
    print(f"  unresponsive switch: {victim}")
    print(f"  controller         : {controller.summary()}")

    system = ScoutSystem(controller)
    report = system.localize(scope="controller")

    print("\n== Outcome ==")
    print(f"  missing rules          : {report.equivalence.total_missing()}")
    print(f"  faulty objects reported: {len(report.faulty_objects())}")
    print(f"  victim in hypothesis   : {victim in report.faulty_objects()}")
    if report.correlation:
        causes = report.correlation.root_causes()
        print(f"  root causes            : {sorted(causes)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--large", action="store_true", help="run use case 3 (many missing rules)")
    args = parser.parse_args()
    if args.large:
        run_large()
    else:
        run_small()


if __name__ == "__main__":
    main()
