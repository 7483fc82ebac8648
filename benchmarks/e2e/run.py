#!/usr/bin/env python3
"""End-to-end benchmark of the SCOUT reproduction: one command, five workloads.

One workload, as the benchmark driver runs it::

    python3 benchmarks/e2e/run.py --workload churn-simulation --seed 7 \\
        --seconds 12 --trace 0

prints every metric by name with its unit and direction, then — as the last
line of standard output — one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` is the separate traced run that gives the
per-layer metrics.  Metric names, units and directions come from
``BENCHMARK.json`` at the repository root, the one catalogue.

The whole set, each run in a fresh subprocess::

    python3 benchmarks/e2e/run.py --workload all --seed 2018 --repeat 10 \\
        --out benchmarks/e2e/out/results.json

runs every workload untraced on ``--repeat`` consecutive seeds and traced
once, and writes the result file ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
#: A traced run fails when named layers account for less of its operations.
MIN_COVERAGE = 0.9
#: Times taken during set-up; scaled by the host speed measured around the
#: set-ups, every other time by the speed measured between operations.
SETUP_METRICS = {
    "setup_s",
    "workloads.generate_s",
    "fabric.deploy_s",
    "online.bootstrap_s",
    "parallel.pool_warmup_s",
    "online.warmup_cycle_s",
}


def load_catalog() -> Dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, in MB."""
    kilobytes = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kilobytes / 1024.0


def at_reference_speed(metric: Dict, value: float, rec) -> float:
    """A time or rate as it would read on a host running at reference speed.

    Wall times are divided, and rates multiplied, by how much slower than the
    reference the speed kernel ran during the same phase of this run
    (README.md, "Host speed"); counts, ratios and sizes pass through.
    """
    slowdown = rec.slowdown(setup=metric["name"] in SETUP_METRICS)
    if metric["unit"] in ("s", "ms"):
        return value / slowdown
    if metric["unit"] == "1/s":
        return value * slowdown
    return value


def run_workload(args: argparse.Namespace, catalog: Dict) -> int:
    """Run one workload in this process and print its result line."""
    from recorder import Recorder
    from spans import ROOT
    from workloads import WORKLOADS

    rec = Recorder(args.seconds, trace=bool(args.trace))
    WORKLOADS[args.workload](rec, args.seed, args.smoke)
    if args.trace:
        declared = catalog["per_layer"]
        # Read after the workload closed its pools: a child's peak only
        # counts once the child has been reaped.
        values = {**rec.per_layer(), "bench.peak_rss_mb": _peak_rss_mb()}
        if values["trace.coverage"] < MIN_COVERAGE:
            rec.verify([f"trace.coverage {values['trace.coverage']:.3f} < {MIN_COVERAGE}"])
    else:
        declared = catalog["end_to_end"]
        values = rec.end_to_end()
    names = {metric["name"] for metric in declared}
    if set(values) - names:
        raise SystemExit(f"not in BENCHMARK.json: {sorted(set(values) - names)}")
    if not args.trace and names - set(values):
        raise SystemExit(f"not measured: {sorted(names - set(values))}")

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}  operations {len(rec.samples)}  host slowdown "
        f"{rec.slowdown(setup=True):.2f} (set-up) {rec.slowdown(setup=False):.2f} (operations)"
    )
    metrics = {}
    for metric in declared:
        # A layer the workload never enters spent no time and counted nothing.
        value = at_reference_speed(metric, float(values.get(metric["name"], 0.0)), rec)
        if not math.isfinite(value):
            raise SystemExit(f"{metric['name']} is not finite: {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if metric["name"] in values:
            print(
                f"  {metric['name']:<36} {value:>16.6g} {metric['unit']:<6}"
                f" ({metric['better']} is better)"
            )
    if args.trace:
        in_ops = rec.spans.op_layers()
        own = rec.spans.self_times()
        shares = {name: sum(seconds) for name, seconds in own.items() if name in in_ops}
        wall = sum(shares.values()) + sum(own.get(ROOT, ()))
        dominant = max(shares, key=shares.get)
        print(
            f"  dominant layer: {dominant} "
            f"({100.0 * shares[dominant] / wall:.1f}% of the traced operations)"
        )
        if args.chrome:
            Path(args.chrome).parent.mkdir(parents=True, exist_ok=True)
            Path(args.chrome).write_text(json.dumps(rec.spans.chrome_trace()))
    for problem in rec.failures:
        print(f"  FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------- #
# The whole set
# ---------------------------------------------------------------------- #
def _child(args: argparse.Namespace, workload: str, seed: int, trace: int) -> Dict:
    """One workload run in a fresh interpreter; returns its result object."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    if trace and args.out:
        command += ["--chrome", str(Path(args.out).with_suffix(f".{workload}.trace.json"))]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} printed no result")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def _commit() -> Optional[str]:
    """The checkout's commit, when it is a git checkout at all."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, check=False
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_all(args: argparse.Namespace, catalog: Dict) -> int:
    """Run every workload — untraced on each seed, traced once — and report."""
    document = {
        "meta": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _commit(),
            "seed": args.seed,
            "repeat": args.repeat,
            "seconds": args.seconds,
            "smoke": args.smoke,
        },
        "workloads": {},
    }
    failed = 0
    for workload in (entry["name"] for entry in catalog["workloads"]):
        end_to_end: Dict[str, List[float]] = {}
        attempted = 0
        for seed in range(args.seed, args.seed + args.repeat):
            result = _child(args, workload, seed, trace=0)
            for name, metric in result["metrics"].items():
                end_to_end.setdefault(name, []).append(metric["value"])
            attempted += result["attempted"]
            failed += result["failed"]
        traced = _child(args, workload, args.seed, trace=1)
        attempted += traced["attempted"]
        failed += traced["failed"]
        document["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "attempted": attempted,
        }
    document["failed"] = failed

    # Churn counts management events and storms count bus events; this line
    # puts both in bus events, the unit they share.
    rates = {
        workload: entry["per_layer"]["online.bus_events_per_s"]
        for workload, entry in document["workloads"].items()
        if entry["per_layer"]["online.bus_events_per_s"]
    }
    print("\nbus events absorbed per second of timed work (online.bus_events_per_s):")
    for workload, rate in rates.items():
        fan_out = document["workloads"][workload]["per_layer"]["online.bus_events_per_op"]
        print(f"  {workload:<22} {rate:>12.0f} 1/s   ({fan_out:.0f} bus events per operation)")
    print(f"\noperations failed: {failed}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test sizes")
    parser.add_argument("--chrome", help="write the traced run's spans here (Chrome trace)")
    parser.add_argument("--repeat", type=int, default=1, help="with 'all': seeds per workload")
    parser.add_argument("--out", help="with 'all': write the result file here")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir():
        # Nothing to measure: this is not a checkout of the program.
        print(f"no program source under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO / "src"), str(HERE)]
    catalog = load_catalog()
    if args.seconds is None:
        args.seconds = float(catalog["run_seconds"])
    names = [entry["name"] for entry in catalog["workloads"]]
    if args.workload == "all":
        return run_all(args, catalog)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(names)}, all)")
    return run_workload(args, catalog)


if __name__ == "__main__":
    sys.exit(main())
