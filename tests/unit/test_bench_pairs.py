"""``scripts/bench_pairs.py`` assembles per-seed runs into the result files
``benchmarks/e2e/compare.py`` reads, without running the benchmark here."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(op_ms: float, setup_s: float, failed: int = 0) -> dict:
    """One ``run.py --workload W --trace 0`` result object."""
    return {
        "correct": not failed,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "op_ms": {"value": op_ms, "unit": "ms", "better": "lower"},
            "setup_s": {"value": setup_s, "unit": "s", "better": "lower"},
        },
    }


def _traced(ops: float) -> dict:
    """One ``run.py --trace 1`` result object."""
    result = _result(8.0, 1.0)
    result["metrics"]["bench.traced_ops"] = {"value": ops, "unit": "count"}
    result["metrics"]["bench.peak_rss_mb"] = {"value": 75.25, "unit": "MB"}
    return result


def test_two_seeds_assemble_into_what_compare_reads():
    pairs = _load(REPO / "scripts" / "bench_pairs.py", "bench_pairs")
    compare = _load(REPO / "benchmarks" / "e2e" / "compare.py", "compare")
    catalog = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in catalog["workloads"]]
    parent = {name: [_result(10.0, 1.0), _result(12.0, 1.2)] for name in names}
    change = {name: [_result(8.0, 1.0), _result(9.0, 1.1, failed=1)] for name in names}

    a = pairs.assemble(parent, {"source": "ref"})
    b = pairs.assemble(change, {"source": "working tree"})

    assert a["meta"] == {"source": "ref"} and a["failed"] == 0 and b["failed"] == len(names)
    assert b["workloads"][names[0]] == {
        "end_to_end": {"op_ms": [8.0, 9.0], "setup_s": [1.0, 1.1]},
        "attempted": 20,
    }
    rows = compare.compare(a, b, catalog)
    assert len(rows) == len(names) * len(catalog["end_to_end"])
    op_rows = [row for row in rows if row["metric"] == "op_ms"]
    assert all((row["a"], row["b"], row["n"]) == (11.0, 8.5, 2) for row in op_rows)


def test_the_change_side_is_one_trajectory_point():
    pairs = _load(REPO / "scripts" / "bench_pairs.py", "bench_pairs")
    catalog = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in catalog["workloads"]]
    op_ms = [9.0, 8.0, 10.0, 11.0, 7.5]
    change = {
        name: [_result(value, 1.0, failed=int(index == 0)) for index, value in enumerate(op_ms)]
        for name in names
    }
    meta = {"nproc": 2, "python": "3.11.7", "seconds": 15, "source": "working tree"}
    document = pairs.assemble(change, meta)

    point = pairs.trajectory_point(document, "a" * 40)

    recorded = (REPO / "benchmarks" / "TRAJECTORY.jsonl").read_text().splitlines()
    assert point.keys() == json.loads(recorded[-1]).keys()
    assert (point["commit"], point["label"], point["parent"]) == (None, "", "a" * 40)
    assert point["failed"] == len(names)
    assert (point["nproc"], point["python"], point["seconds"]) == (2, "3.11.7", 15.0)
    assert (point["repeat"], point["seed"]) == (10, 2018)
    assert sorted(point["workloads"]) == sorted(names)
    # statistics.quantiles' default (exclusive) method, as compare.py's spread.
    assert point["workloads"][names[0]] == {
        "op_ms": {"median": 9.0, "n": 5, "q1": 7.75, "q3": 10.5},
        "setup_s": {"median": 1.0, "n": 5, "q1": 1.0, "q3": 1.0},
    }
    json.dumps(point)  # what main() writes to benchmarks/pairs/point.json


def test_the_first_side_alternates_and_only_the_ref_is_an_argument():
    pairs = _load(REPO / "scripts" / "bench_pairs.py", "bench_pairs")
    assert [tuple(pairs.order(index)) for index in range(4)] == [
        ("A", "B"),
        ("B", "A"),
        ("A", "B"),
        ("B", "A"),
    ]
    assert list(pairs.SEEDS) == list(range(2018, 2028))
    assert pairs.main([]) == 2 and pairs.main(["HEAD", "--seconds"]) == 2


def test_a_failed_traced_run_is_named_and_fails_the_script(capsys):
    pairs = _load(REPO / "scripts" / "bench_pairs.py", "bench_pairs")
    catalog = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in catalog["workloads"]]
    cases = pairs.traced_cases(names)
    # Every workload once at the first seed, churn at every seed.
    assert cases[: len(names)] == [(name, 2018) for name in names]
    assert [seed for name, seed in cases if name == pairs.CHURN] == list(range(2018, 2028))
    assert len(cases) == len(names) + 9

    runs = [
        ("A", pairs.CHURN, 2019, _traced(34.0)),
        ("B", pairs.CHURN, 2019, (1, "StatisticsError: no median for empty data")),
        ("B", names[0], 2018, _traced(120.0)),
    ]
    assert pairs.traced_report(runs) == [f"traced run failed: B {pairs.CHURN} seed 2019"]
    out, err = capsys.readouterr()
    assert f"A {pairs.CHURN} seed 2019 trace 1: bench.traced_ops 34  bench.peak_rss_mb 75.2" in out
    assert "lowest bench.traced_ops, side A: 34" in out
    assert "lowest bench.traced_ops, side B: 120" in out
    assert f"B {pairs.CHURN} seed 2019" in err
    assert pairs.traced_report(runs[:1] + runs[2:]) == []


def test_a_failed_traced_run_says_on_which_side_and_why(tmp_path, capsys):
    pairs = _load(REPO / "scripts" / "bench_pairs.py", "bench_pairs")
    cliff = "statistics.StatisticsError: no median for empty data"
    # A checkout whose run.py crashes the way an empty traced sample does.
    run = tmp_path / "benchmarks" / "e2e" / "run.py"
    run.parent.mkdir(parents=True)
    run.write_text(
        "import sys\n"
        "print('Traceback (most recent call last):', file=sys.stderr)\n"
        f"print({cliff!r}, file=sys.stderr)\n"
        "sys.exit(1)\n"
    )
    assert pairs.run_traced(tmp_path, pairs.CHURN, 2019) == (1, cliff)
    capsys.readouterr()

    runs = [
        ("A", pairs.CHURN, 2019, (1, cliff)),
        ("B", pairs.CHURN, 2019, (1, cliff)),
        ("B", pairs.CHURN, 2020, (1, cliff)),
        ("A", pairs.CHURN, 2020, _traced(40.0)),
        ("A", pairs.CHURN, 2021, (2, "")),
        ("B", pairs.CHURN, 2021, _traced(40.0)),
    ]
    assert pairs.traced_report(runs) == [
        f"traced run failed: A {pairs.CHURN} seed 2019",
        f"traced run failed: B {pairs.CHURN} seed 2019",
        f"traced run failed: B {pairs.CHURN} seed 2020",
        f"traced run failed: A {pairs.CHURN} seed 2021",
    ]
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"traced {pairs.CHURN} seed 2019 failed on both",
        f"  A {pairs.CHURN} seed 2019: exit 1: {cliff}",
        f"  B {pairs.CHURN} seed 2019: exit 1: {cliff}",
        f"traced {pairs.CHURN} seed 2020 failed on B",
        f"  B {pairs.CHURN} seed 2020: exit 1: {cliff}",
        f"traced {pairs.CHURN} seed 2021 failed on A",
        f"  A {pairs.CHURN} seed 2021: exit 2: ",
    ]


def test_the_newest_point_is_named_by_the_commit_that_recorded_it(tmp_path):
    pairs = _load(REPO / "scripts" / "bench_pairs.py", "bench_pairs")
    older = {"commit": "c" * 40, "label": "PR n: café", "parent": "b" * 40}
    newest = {"commit": None, "label": "PR n+1", "parent": "c" * 40}
    head = json.dumps(older, ensure_ascii=False, indent=None) + "\n"
    trajectory = tmp_path / "TRAJECTORY.jsonl"
    trajectory.write_text(head + json.dumps(newest, sort_keys=True) + "\n")

    # REF is not the child of the point's parent: nothing is filled.
    assert not pairs.backfill(trajectory, "e" * 40, "d" * 40)
    assert trajectory.read_text() == head + json.dumps(newest, sort_keys=True) + "\n"

    assert pairs.backfill(trajectory, "d" * 40, "c" * 40)
    lines = trajectory.read_text().splitlines(keepends=True)
    assert lines[0] == head  # every older line byte for byte
    assert json.loads(lines[1]) == {**newest, "commit": "d" * 40}
    # A filled point is never filled again.
    assert not pairs.backfill(trajectory, "f" * 40, "c" * 40)
    assert json.loads(trajectory.read_text().splitlines()[-1])["commit"] == "d" * 40


def test_a_point_is_backfilled_across_a_re_anchor_commit(tmp_path):
    """A fake history: a base, the change a point was recorded for, then two
    ``ROADMAP.md``-only re-anchors.  Running from the newest names the change."""
    pairs = _load(REPO / "scripts" / "bench_pairs.py", "bench_pairs")
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args: str) -> str:
        identity = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
        done = subprocess.run(
            ["git", *identity, *args], cwd=repo, capture_output=True, text=True, check=True
        )
        return done.stdout.strip()

    def commit(**files: str) -> str:
        for name, text in files.items():
            (repo / name.replace("_", ".")).write_text(text)
        git("add", "-A")
        git("commit", "-q", "-m", "x")
        return git("rev-parse", "HEAD")

    git("init", "-q")
    base = commit(ROADMAP_md="0", code_py="0")
    change = commit(code_py="1")
    first = commit(ROADMAP_md="1")
    second = commit(ROADMAP_md="2")
    assert pairs.recorded_change(repo, second) == change
    assert pairs.recorded_change(repo, first) == change
    assert pairs.recorded_change(repo, change) == change
    # A commit that touches ROADMAP.md and anything else is a change itself.
    both = commit(ROADMAP_md="3", code_py="2")
    assert pairs.recorded_change(repo, both) == both
    # The root commit is the change it was recorded for.
    assert pairs.recorded_change(repo, base) == base

    trajectory = tmp_path / "TRAJECTORY.jsonl"
    point = {"commit": None, "label": "PR n", "parent": base}
    trajectory.write_text(json.dumps(point, sort_keys=True) + "\n")
    assert not pairs.backfill(trajectory, second, first)
    assert pairs.backfill(trajectory, change, base)
    assert json.loads(trajectory.read_text()) == {**point, "commit": change}
