#!/usr/bin/env python3
"""Compare two result files of ``run.py --workload all``: parent A, change B.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload and end-to-end metric: both medians, the number of
runs, how much worse B is (positive = worse, whatever the metric's
direction), the bound ``BENCHMARK.json`` fixes, and a verdict:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — either side's run-to-run spread (quartile distance over
  median) is wider than the bound, so the medians cannot settle it, unless
  every run of B reads better than every run of A.

Exits non-zero when any row is ``worse`` or B recorded a failed operation.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent.parent


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Dict:
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / median_a
    widest = max(spread(a), spread(b))
    if widest > bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        outcome = "ok" if all_better else "unresolved"
    else:
        outcome = "worse" if worse_by > bound else "ok"
    return {
        "a": median_a,
        "b": median_b,
        "n": min(len(a), len(b)),
        "worse_by": worse_by,
        "spread": widest,
        "bound": bound,
        "verdict": outcome,
    }


def compare(a: Dict, b: Dict, catalog: Dict) -> List[Dict]:
    rows = []
    for workload in (entry["name"] for entry in catalog["workloads"]):
        for metric in catalog["end_to_end"]:
            row = verdict(
                a["workloads"][workload]["end_to_end"][metric["name"]],
                b["workloads"][workload]["end_to_end"][metric["name"]],
                metric["better"],
                metric["bound"],
            )
            rows.append({"workload": workload, "metric": metric["name"], **row})
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in paths)
    catalog = json.loads((REPO / "BENCHMARK.json").read_text())
    rows = compare(a, b, catalog)
    print(
        f"{'workload':<18} {'metric':<12} {'A median':>12} {'B median':>12} {'n':>3} "
        f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<18} {row['metric']:<12} {row['a']:>12.5g} {row['b']:>12.5g} "
            f"{row['n']:>3} {row['worse_by']:>+9.1%} {row['spread']:>7.1%} "
            f"{row['bound']:>6.0%}  {row['verdict']}"
        )
    print(f"operations failed: A {a['failed']}, B {b['failed']}")
    bad = [row for row in rows if row["verdict"] == "worse"]
    return 1 if bad or b["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
