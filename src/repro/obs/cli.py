"""``repro-trace``: run a traced workload and print an attribution report.

Two subcommands:

* ``check`` — deploy a profile, run the SCOUT pipeline under a collector
  and print the stage → total/self time table.  ``--chrome``/``--jsonl``
  additionally export the raw trace for ``chrome://tracing`` / Perfetto or
  offline analysis.
* ``flightrecord`` — pretty-print a dumped black-box bundle (from
  ``GET /incidents/{id}/flightrecord`` or the service logs): trigger,
  correlation id, the buffered span tree, and the events leading up to
  the dump.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Optional, Sequence

from ..core.system import ScoutSystem
from ..workloads.profiles import profile_names
from ..workloads.scenarios import deploy_profile
from .export import write_chrome, write_jsonl
from .recorder import format_flightrecord
from .report import attribution, format_attribution
from .trace import TraceCollector

__all__ = ["main"]


def _add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        default="small",
        help=f"workload profile to deploy ({', '.join(profile_names())})",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the profile's RNG seed"
    )


def _cmd_check(args: argparse.Namespace) -> int:
    system = ScoutSystem(deploy_profile(args.profile, seed=args.seed))
    collector = TraceCollector()
    start = time.perf_counter()
    report = system.localize(trace=collector)
    wall = time.perf_counter() - start
    spans = collector.spans()
    print(
        f"[repro-trace] profile {args.profile!r}: {len(spans)} span(s) "
        f"in {wall:.3f}s, consistent={report.consistent}"
    )
    print(format_attribution(attribution(spans), wall_seconds=wall))
    if args.jsonl:
        count = write_jsonl(spans, args.jsonl)
        print(f"[repro-trace] wrote {count} span(s) to {args.jsonl}")
    if args.chrome:
        count = write_chrome(spans, args.chrome)
        print(
            f"[repro-trace] wrote {count} event(s) to {args.chrome} "
            "(open in chrome://tracing or https://ui.perfetto.dev)"
        )
    return 0


def _cmd_flightrecord(args: argparse.Namespace) -> int:
    with open(args.path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    # Accept both a bare bundle and the service's {"flightrecord": {...}}
    # response envelope, so a curl output file works unmodified.
    bundle = payload.get("flightrecord", payload) if isinstance(payload, dict) else None
    if not isinstance(bundle, dict) or "trigger" not in bundle:
        print(f"[repro-trace] {args.path}: not a flight-record bundle")
        return 1
    print(format_flightrecord(bundle, max_events=args.events))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Run a traced workload and print a perf-attribution report.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check", help="trace the SCOUT pipeline and print stage attribution"
    )
    _add_profile_arguments(check)
    check.add_argument("--chrome", default=None, help="write a Chrome trace JSON here")
    check.add_argument("--jsonl", default=None, help="write raw spans as JSONL here")
    check.set_defaults(func=_cmd_check)

    flight = commands.add_parser(
        "flightrecord",
        help="pretty-print a dumped flight-recorder black-box bundle",
    )
    flight.add_argument("path", help="JSON bundle file (bare or service envelope)")
    flight.add_argument(
        "--events",
        type=int,
        default=10,
        help="how many trailing events to show (default 10)",
    )
    flight.set_defaults(func=_cmd_flightrecord)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
