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
once the change is committed.  When the newest point of the trajectory
still has ``commit`` null, it is filled (:func:`backfill`) with the commit
of the change it was recorded for: REF, or, when REF only re-anchored
``ROADMAP.md``, the first commit down REF's first-parent line that changed
anything else (:func:`recorded_change`) — provided the point's ``parent``
is that commit's first parent.  Both sides run the benchmark of their own
checkout at the run length it declares.  Committed files are untouched: the
working tree's ``src/`` is what B measures, whether committed or not.

After the pairs, each side runs ``--trace 1`` once per workload at the first
seed and ``churn-simulation`` at every seed (:func:`traced_cases`): a traced
run times only the operations after its warm-up share of the budget, so a
faster program can leave one with nothing traced, and the run then fails.
Each traced run's ``bench.traced_ops`` (the lowest per side too) and
``bench.peak_rss_mb`` are printed; a traced run that fails is named (side,
workload, seed) with its exit code and the last line of its standard error,
each failed ``(workload, seed)`` says whether it failed on A, on B or on
both, and any failure makes the exit status 1 whatever ``compare.py`` said.
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
from typing import Dict, List, Mapping, Sequence, Tuple, Union

REPO = Path(__file__).resolve().parent.parent
SEEDS = range(2018, 2028)
OUT = REPO / "benchmarks" / "pairs"
TRAJECTORY = REPO / "benchmarks" / "TRAJECTORY.jsonl"
SIDES = ("A", "B")
#: The workload traced at every seed: the one whose traced runs can come up empty.
CHURN = "churn-simulation"
#: Why a traced run failed: its exit code and the last line of its standard error.
Failure = Tuple[int, str]


def order(seed_index: int) -> Sequence[str]:
    """Which side runs first: A on even seed indices, B on odd ones."""
    return SIDES if seed_index % 2 == 0 else SIDES[::-1]


def _run(checkout: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    """``benchmarks/e2e/run.py`` from ``checkout``, its standard output kept,
    and for a traced run its standard error too."""
    command = [
        sys.executable,
        str(checkout / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
    ]  # fmt: skip
    stderr = subprocess.PIPE if trace else None
    return subprocess.run(command, stdout=subprocess.PIPE, stderr=stderr, text=True, check=False)


def run_once(checkout: Path, workload: str, seed: int) -> Dict:
    """One untraced run of ``workload`` from ``checkout``; its result object."""
    lines = _run(checkout, workload, seed, 0).stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed no result")
    return json.loads(lines[-1])


def run_traced(checkout: Path, workload: str, seed: int) -> Union[Dict, Failure]:
    """One traced run; its result object, or its :data:`Failure` when it
    exited non-zero or printed no result.  Its standard error is passed on."""
    done = _run(checkout, workload, seed, 1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        errors = done.stderr.strip().splitlines()
        return done.returncode, errors[-1] if errors else ""
    return json.loads(lines[-1])


def traced_cases(workloads: Sequence[str]) -> List[Tuple[str, int]]:
    """``(workload, seed)`` of every traced run a side makes: each workload
    at the first seed, then ``churn-simulation`` at every other seed."""
    cases = [(workload, SEEDS.start) for workload in workloads]
    if CHURN in workloads:
        cases += [(CHURN, seed) for seed in SEEDS[1:]]
    return cases


def traced_report(
    runs: Sequence[Tuple[str, str, int, Union[Dict, Failure]]]
) -> List[str]:
    """Print each traced run's ``bench.traced_ops`` and peak RSS — ``runs``
    holds ``(side, workload, seed, result)``, where a failed run's result is
    its :data:`Failure` — and the lowest ``bench.traced_ops`` per side; then,
    per failed ``(workload, seed)``, whether it failed on A, on B or on
    both, and each failed run's exit code and last line of standard error.
    Returns one line per run that failed, naming its side, workload and
    seed."""
    failures = []
    failed: Dict[Tuple[str, int], Dict[str, Failure]] = {}
    lowest: Dict[str, float] = {}
    for side, workload, seed, result in runs:
        if not isinstance(result, dict):
            failures.append(f"traced run failed: {side} {workload} seed {seed}")
            failed.setdefault((workload, seed), {})[side] = result
            continue
        metrics = result["metrics"]
        traced = metrics["bench.traced_ops"]["value"]
        lowest[side] = min(traced, lowest.get(side, traced))
        print(
            f"{side} {workload} seed {seed} trace 1: bench.traced_ops {traced:g}"
            f"  bench.peak_rss_mb {metrics['bench.peak_rss_mb']['value']:.1f}"
        )
    for side in sorted(lowest):
        print(f"lowest bench.traced_ops, side {side}: {lowest[side]:g}")
    for (workload, seed), sides in failed.items():
        where = "both" if len(sides) == len(SIDES) else next(iter(sides))
        print(f"traced {workload} seed {seed} failed on {where}", file=sys.stderr)
        for side, (code, line) in sorted(sides.items()):
            print(f"  {side} {workload} seed {seed}: exit {code}: {line}", file=sys.stderr)
    return failures


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


def backfill(path: Path, commit: str, first_parent: str) -> bool:
    """Fill the newest point's ``commit`` with ``commit`` when it is null and
    the point's ``parent`` is ``first_parent``, ``commit``'s first parent;
    every other line is kept byte for byte.  Returns whether it filled it."""
    lines = path.read_text().splitlines(keepends=True)
    if not lines:
        return False
    point = json.loads(lines[-1])
    if point["commit"] is not None or point["parent"] != first_parent:
        return False
    point["commit"] = commit
    lines[-1] = json.dumps(point, sort_keys=True) + "\n"
    path.write_text("".join(lines))
    return True


def recorded_change(repo: Path, commit: str) -> str:
    """``commit``, or — while the commit changed ``ROADMAP.md`` alone (a
    re-anchor) — its first parent, walked down: the commit a trajectory
    point measured on ``commit``'s checkout was recorded for."""
    while _git(repo, "diff-tree", "--no-commit-id", "--name-only", "-r", commit) == "ROADMAP.md":
        parent = _git(repo, "rev-parse", "--verify", "--quiet", f"{commit}^")
        if not parent:
            break
        commit = parent
    return commit


def _git(repo: Path, *args: str) -> str:
    """``git ARGS`` in ``repo``: its standard output, stripped ("" on failure)."""
    return subprocess.run(
        ["git", *args], cwd=repo, capture_output=True, text=True, check=False
    ).stdout.strip()


def _rev_parse(revision: str) -> str:
    """The commit ``revision`` names, or "" when it names none."""
    return _git(REPO, "rev-parse", "--verify", "--quiet", f"{revision}^{{commit}}")


def _export(ref: str, into: Path) -> str:
    """Unpack ``git archive REF`` into ``into``; returns the commit it names."""
    commit = _rev_parse(ref)
    if not commit:
        raise SystemExit(f"{ref}: not a commit")
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
        change = recorded_change(REPO, commit)
        if backfill(TRAJECTORY, change, _rev_parse(f"{change}^")):
            print(f"{TRAJECTORY.name}: newest point's commit filled with {change}", flush=True)
        checkouts = {"A": Path(tmp), "B": REPO}
        runs: Dict[str, Dict[str, List[Dict]]] = {side: {} for side in SIDES}
        for workload in workloads:
            for index, seed in enumerate(SEEDS):
                for side in order(index):
                    print(f"{side} {workload} seed {seed}", flush=True)
                    result = run_once(checkouts[side], workload, seed)
                    runs[side].setdefault(workload, []).append(result)
        traced = []
        for index, (workload, seed) in enumerate(traced_cases(workloads)):
            for side in order(index):
                print(f"{side} {workload} seed {seed} trace 1", flush=True)
                traced.append((side, workload, seed, run_traced(checkouts[side], workload, seed)))
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
    status = subprocess.run([sys.executable, str(compare), *paths], check=False).returncode
    return 1 if traced_report(traced) else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
