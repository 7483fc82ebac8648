"""``check_bench_json.EXPECTED_KEYS`` lists only files a benchmark still writes,
and ``TRAJECTORY.jsonl`` is one well-formed point per line."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def test_every_expected_bench_json_has_an_emitter():
    spec = importlib.util.spec_from_file_location(
        "check_bench_json", BENCHMARKS / "check_bench_json.py"
    )
    check_bench_json = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_bench_json)

    emitted = set()
    for bench in BENCHMARKS.glob("bench_*.py"):
        for name in re.findall(r'emit_bench_json\(\s*"(\w+)"', bench.read_text()):
            emitted.add(f"BENCH_{name}.json")
    # A deleted or renamed bench must take its row with it.
    assert set(check_bench_json.EXPECTED_KEYS) <= emitted


def test_every_trajectory_point_has_the_same_keys_and_names_its_commit():
    """Only the newest point may still wait for its commit: every other one
    names a commit of its own, as 40 hex digits."""
    lines = (BENCHMARKS / "TRAJECTORY.jsonl").read_text().splitlines()
    points = [json.loads(line) for line in lines]
    assert len(points) > 1
    assert all(point.keys() == points[0].keys() for point in points)
    commits = [point["commit"] for point in points[:-1]]
    assert all(re.fullmatch(r"[0-9a-f]{40}", str(commit)) for commit in commits)
    assert len(set(commits)) == len(commits)
