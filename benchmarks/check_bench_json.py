#!/usr/bin/env python3
"""Sanity-check emitted ``BENCH_*.json`` files (used as a CI gate).

A benchmark whose emitter broke — missing file, empty payload, absent or
non-positive gate metric — must fail the build even when its own assertions
passed.  Usage::

    python check_bench_json.py BENCH_service.json BENCH_campaign.json BENCH_ap.json

Exits non-zero (listing every problem) unless each file exists, parses as a
JSON object, carries at least one *gate metric* (``speedup`` for the
engine benchmark, ``requests_per_second`` for the service benchmark)
and every gate metric present is a finite number strictly greater than 0.
Files whose names appear in ``EXPECTED_KEYS`` must additionally carry
*their* gate metrics specifically — "some metric was present" is not enough
to prove the right emitter ran.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

#: Keys that prove the emitter measured something.  A payload must carry at
#: least one; each one present must be a finite number > 0.
GATE_KEYS = (
    "speedup",
    "requests_per_second",
    "audit_p50_ms",
    "cells_per_second",
    "overhead_ratio",
    "recorder_ratio",
    "rules_per_second",
)

#: The gate metrics each known emitter is *expected* to write.  A renamed or
#: dropped key must fail loudly here, not slide through because some other
#: numeric key happened to satisfy the generic check above.
EXPECTED_KEYS = {
    "BENCH_service.json": ("requests_per_second",),
    "BENCH_campaign.json": ("cells_per_second",),
    "BENCH_trace_overhead.json": ("overhead_ratio", "recorder_ratio"),
    "BENCH_ap.json": ("rules_per_second",),
}


def check_file(path: Path) -> list:
    problems = []
    if not path.is_file():
        return [f"{path}: file not found"]
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path}: invalid JSON ({exc})"]
    if not isinstance(payload, dict) or not payload:
        return [f"{path}: payload must be a non-empty JSON object"]
    present = [key for key in GATE_KEYS if key in payload]
    if not present:
        expected = ", ".join(GATE_KEYS)
        problems.append(f"{path}: no gate metric present (expected one of: {expected})")
    for required in EXPECTED_KEYS.get(path.name, ()):
        if required not in payload:
            problems.append(
                f"{path}: expected gate metric {required!r} missing from payload"
            )
    for key in present:
        value = payload[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{path}: {key!r} is not a number: {value!r}")
        elif not math.isfinite(value) or value <= 0:
            problems.append(f"{path}: {key!r} must be finite and > 0, got {value}")
    return problems


def main(argv: list) -> int:
    if not argv:
        print("usage: check_bench_json.py BENCH_file.json [...]", file=sys.stderr)
        return 2
    problems = []
    for name in argv:
        problems.extend(check_file(Path(name)))
    for problem in problems:
        print(f"BENCH sanity: {problem}", file=sys.stderr)
    if not problems:
        print(f"BENCH sanity: {len(argv)} file(s) ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
