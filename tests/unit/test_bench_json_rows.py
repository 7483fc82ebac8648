"""``check_bench_json.EXPECTED_KEYS`` lists only files a benchmark still writes."""

from __future__ import annotations

import importlib.util
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
