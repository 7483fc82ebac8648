"""Shared fixtures and sizing knobs for the ``bench_*.py`` files.

These regenerate the paper's tables and figures (``bench_figure*.py``,
``bench_scalability.py``), hold the ``ap``-vs-``bdd`` oracle contract
(``bench_ap.py``) and guard three subsystem contracts (``bench_service.py``,
``bench_campaign.py``, ``bench_trace_overhead.py``).  Performance across PRs
is measured and recorded elsewhere: by ``benchmarks/e2e`` into
``benchmarks/TRAJECTORY.jsonl``.  Every floor in this directory is
unconditional.  By default the sweeps run at a reduced number of repetitions
so the whole directory finishes in a few minutes; set ``REPRO_BENCH_FULL=1``
to run at the paper's full scale (30 runs per point, 1,500 simulated faults,
500-leaf scalability sweep).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

import pytest

from repro.experiments import prepare_workload
from repro.workloads import simulation_profile, testbed_profile


def full_scale() -> bool:
    """True when the harness should run at the paper's full repetition counts."""
    return os.environ.get("REPRO_BENCH_FULL", "0") not in ("", "0", "false", "no")


def emit_bench_json(name: str, payload: dict) -> Optional[Path]:
    """Optionally write ``BENCH_<name>.json`` with machine-readable results.

    Controlled by ``REPRO_BENCH_JSON``: unset/``0`` disables emission, ``1``
    writes into the current directory, any other value is treated as the
    target directory.  The files are git-ignored: CI uploads them as per-commit
    artifacts and ``check_bench_json.py`` checks that each emitter ran.
    """
    flag = os.environ.get("REPRO_BENCH_JSON", "0")
    if flag in ("", "0", "false", "no"):
        return None
    target_dir = Path(".") if flag in ("1", "true", "yes") else Path(flag)
    target_dir.mkdir(parents=True, exist_ok=True)
    path = target_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="session")
def bench_runs() -> int:
    """Accuracy-sweep repetitions per (algorithm, fault-count) point."""
    return 30 if full_scale() else 5


@pytest.fixture(scope="session")
def bench_fault_counts() -> tuple:
    """Simultaneous-fault counts swept by the accuracy figures."""
    return tuple(range(1, 11)) if full_scale() else (1, 2, 4, 6, 8, 10)


@pytest.fixture(scope="session")
def deployed_simulation():
    """The simulated-cluster workload, generated and deployed once per session."""
    return prepare_workload(simulation_profile())


@pytest.fixture(scope="session")
def deployed_testbed():
    """The testbed workload, generated and deployed once per session."""
    return prepare_workload(testbed_profile())
