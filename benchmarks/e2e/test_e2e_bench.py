"""Self-tests of the end-to-end benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import functools
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import compare  # noqa: E402
import recorder  # noqa: E402
import workloads  # noqa: E402
from spans import ROOT, SpanLog  # noqa: E402

CATALOG = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [entry["name"] for entry in CATALOG["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_benchmark(*arguments: str, cwd: Path = REPO, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
        check=False,
    )


# ---------------------------------------------------------------------- #
# The catalogue
# ---------------------------------------------------------------------- #
def test_catalogue_meets_the_contract():
    assert set(CATALOG) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert CATALOG["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(CATALOG["workloads"]) <= 8
    assert 1 <= len(CATALOG["end_to_end"]) <= 16
    assert 1 <= len(CATALOG["per_layer"]) <= 128
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    names = WORKLOAD_NAMES + [
        metric["name"] for metric in CATALOG["end_to_end"] + CATALOG["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in CATALOG["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for metric in CATALOG["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CATALOG["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CATALOG["end_to_end"] + CATALOG["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in CATALOG["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CATALOG["end_to_end"])


# ---------------------------------------------------------------------- #
# Every workload, at smoke size, in both modes
# ---------------------------------------------------------------------- #
#: A seed whose churn stream applies every event kind within its first dozen
#: events, so even a slow machine's two-second run fills every per-kind metric.
SMOKE_SEED = "115"


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int) -> subprocess.CompletedProcess:
    return run_benchmark(
        "--workload", workload, "--seed", SMOKE_SEED, "--seconds", "2", "--smoke",
        "--trace", str(trace),
    )  # fmt: skip


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    done = smoke(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = CATALOG["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
        # Every printed line names its metric's unit and direction.
        assert "(lower is better)" in done.stdout and "dominant layer:" in done.stdout


def test_every_layer_metric_is_measured_by_some_workload():
    """A declared metric no workload ever fills would read 0 forever."""
    measured = set()
    for workload in WORKLOAD_NAMES:
        measured.update(
            re.findall(r"^  (\S+) .* is better\)$", smoke(workload, 1).stdout, flags=re.MULTILINE)
        )
    assert {metric["name"] for metric in CATALOG["per_layer"]} <= measured


def test_directory_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__", "out")
    )
    done = run_benchmark(
        "--workload", "churn-simulation", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py",
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ---------------------------------------------------------------------- #
# The oracles and the arithmetic
# ---------------------------------------------------------------------- #
def test_dropped_missing_rule_is_a_failed_operation():
    from repro.controller.controller import Controller
    from repro.core.system import ScoutSystem
    from repro.faults import FaultInjector
    from repro.workloads import generate_workload, testbed_profile

    generated = generate_workload(testbed_profile())
    controller = Controller(generated.policy, generated.fabric)
    controller.deploy()
    injected = FaultInjector(controller).inject_random_faults(2, seed=5)
    report = ScoutSystem(controller).localize()
    assert workloads.audit_problems(report, injected) == []

    victim = next(iter(report.equivalence.missing_rules()))
    report.equivalence.results[victim].missing_rules.pop()
    problems = workloads.audit_problems(report, injected)
    assert problems and victim in problems[0]

    rec = recorder.Recorder(1.0, trace=False)
    with rec.timed("audit"):
        pass
    rec.verify(problems)
    assert (rec.attempted, rec.failed) == (1, 1)


def test_mix_weighting_ignores_how_many_of_each_kind_a_run_drew():
    def drew(cheap: int, dear: int) -> recorder.Recorder:
        rec = recorder.Recorder(1.0, trace=False)
        rec.mix = {"cheap": 3.0, "dear": 1.0}
        rec.samples = [recorder.Sample("cheap", 1.0, False, 0.010)] * cheap
        rec.samples += [recorder.Sample("dear", 1.0, False, 0.100)] * dear
        rec.samples.append(recorder.Sample("skipped", 1.0, False, 5.0))
        return rec

    few, many = drew(30, 2), drew(10, 20)
    assert few.op_seconds() == pytest.approx(0.0325)
    assert many.op_seconds() == pytest.approx(few.op_seconds())
    assert many.work_per_second() == pytest.approx(1 / 0.0325)


def test_high_percentile_keeps_ten_samples_beyond_it():
    assert recorder.high_percentile(list(range(100))) == (89, 90.0)
    assert recorder.high_percentile([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_span_self_time_and_coverage():
    log = SpanLog(enabled=True)
    log.records = [
        [ROOT, 0.0, 10.0, -1, 0],
        ["layer.a", 1.0, 4.0, 0, 0],
        ["layer.b", 2.0, 3.0, 1, 0],
        ["layer.a", 5.0, 9.0, 0, 0],
        ["setup.x", 20.0, 21.0, -1, -1],
    ]
    assert log.self_times() == {
        ROOT: [3.0], "layer.a": [2.0, 4.0], "layer.b": [1.0], "setup.x": [1.0],
    }  # fmt: skip
    assert log.op_layers() == {"layer.a", "layer.b"}
    assert log.coverage() == pytest.approx(0.7)
    assert len(log.chrome_trace()["traceEvents"]) == 5


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.05 for v in steady], "lower", 0.1)["verdict"] == "ok"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "higher", 0.1)["verdict"] == "worse"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.1)["verdict"] == "ok"
