#!/usr/bin/env python3
"""Run the benchmark as ten alternating pairs: a git ref (A) against the working tree (B).

Usage::

    python scripts/bench_pairs.py REF

``git archive``s ``REF`` into a temporary directory.  Then, for every
workload ``BENCHMARK.json`` declares and every seed 2018–2027, it runs
``benchmarks/e2e/run.py --workload W --seed S --trace 0`` once from each
checkout, one child process per run, the side that runs first alternating
from one seed to the next.  Each side's runs are assembled into the result
file ``benchmarks/e2e/compare.py`` reads — ``benchmarks/pairs/A.json`` and
``benchmarks/pairs/B.json`` — and ``compare.py``'s table is printed; the exit
status is ``compare.py``'s.  B's runs are also written as one point of
``benchmarks/TRAJECTORY.jsonl`` — ``benchmarks/pairs/point.json``, with
``parent`` = REF's commit, ``commit`` null and an empty ``label`` to fill in
once the change is committed.  Both sides run the benchmark of their own
checkout at the run length it declares.  Committed files are untouched: the
working tree's ``src/`` is what B measures, whether committed or not.
"""

from __future__ import annotations

import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

REPO = Path(__file__).resolve().parent.parent
SEEDS = range(2018, 2028)
OUT = REPO / "benchmarks" / "pairs"
SIDES = ("A", "B")


def order(seed_index: int) -> Sequence[str]:
    """Which side runs first: A on even seed indices, B on odd ones."""
    return SIDES if seed_index % 2 == 0 else SIDES[::-1]


def run_once(checkout: Path, workload: str, seed: int) -> Dict:
    """One untraced run of ``workload`` from ``checkout``; its result object."""
    command = [
        sys.executable,
        str(checkout / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed no result")
    return json.loads(lines[-1])


def assemble(runs: Mapping[str, Sequence[Dict]], meta: Mapping) -> Dict:
    """A result file of ``compare.py``'s shape from per-seed run results:
    each end-to-end metric as the list of its values in seed order, the
    operations attempted per workload and the failed ones overall."""
    document: Dict = {"meta": dict(meta), "workloads": {}, "failed": 0}
    for workload, results in runs.items():
        end_to_end: Dict[str, List[float]] = {}
        for result in results:
            for name, metric in result["metrics"].items():
                end_to_end.setdefault(name, []).append(metric["value"])
            document["failed"] += result["failed"]
        document["workloads"][workload] = {
            "end_to_end": end_to_end,
            "attempted": sum(result["attempted"] for result in results),
        }
    return document


def trajectory_point(document: Mapping, parent: str) -> Dict:
    """One side's assembled runs as a ``benchmarks/TRAJECTORY.jsonl`` point:
    per workload and end-to-end metric the median, the quartiles (as
    ``compare.py`` takes them) and the number of runs."""
    workloads: Dict = {}
    for workload, entry in document["workloads"].items():
        workloads[workload] = {}
        for name, values in entry["end_to_end"].items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            workloads[workload][name] = {
                "median": round(statistics.median(values), 5),
                "n": len(values),
                "q1": round(q1, 5),
                "q3": round(q3, 5),
            }
    meta = document["meta"]
    return {
        "commit": None,
        "failed": document["failed"],
        "label": "",
        "nproc": meta["nproc"],
        "parent": parent,
        "python": meta["python"],
        "repeat": len(SEEDS),
        "seconds": float(meta["seconds"]),
        "seed": SEEDS.start,
        "workloads": workloads,
    }


def _export(ref: str, into: Path) -> str:
    """Unpack ``git archive REF`` into ``into``; returns the commit it names."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout.strip()  # fmt: skip
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=REPO, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return commit


def main(argv: Sequence[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/bench_pairs.py REF", file=sys.stderr)
        return 2
    catalog = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in catalog["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        commit = _export(argv[0], Path(tmp))
        checkouts = {"A": Path(tmp), "B": REPO}
        runs: Dict[str, Dict[str, List[Dict]]] = {side: {} for side in SIDES}
        for workload in workloads:
            for index, seed in enumerate(SEEDS):
                for side in order(index):
                    print(f"{side} {workload} seed {seed}", flush=True)
                    result = run_once(checkouts[side], workload, seed)
                    runs[side].setdefault(workload, []).append(result)
    meta = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "seconds": catalog["run_seconds"],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    documents = {
        "A": assemble(runs["A"], {**meta, "source": commit}),
        "B": assemble(runs["B"], {**meta, "source": "working tree"}),
    }
    paths = []
    for side, document in documents.items():
        path = OUT / f"{side}.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        paths.append(str(path))
    point = trajectory_point(documents["B"], commit)
    (OUT / "point.json").write_text(json.dumps(point, sort_keys=True) + "\n")
    compare = REPO / "benchmarks" / "e2e" / "compare.py"
    return subprocess.run([sys.executable, str(compare), *paths], check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
