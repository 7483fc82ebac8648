"""JSONL trace recorder/replayer: the campaign regression contract.

A trace is one campaign run written as JSON Lines:

* line 1 — the **header**: format version and the full campaign spec;
* one **cell** line per executed cell: the cell's parameters, the injected
  fault/change events (with their seeds implied by the cell) and the
  deterministic result payload (equivalence fingerprint, verdict, ground
  truth, localization output, accuracy metrics);
* the final **end** line: the cell count and the fingerprint *chain* over
  the whole run.

Nothing wall-clock-dependent is ever written, so recording the same spec
twice produces byte-identical traces, and ``replay`` can re-run every cell
from the recorded parameters and assert — field by field and via the chain —
that today's code still produces exactly the recorded behavior.  That is the
gate CI runs over ``tests/corpus/``.

Malformed traces fail loudly: every parse error is a :class:`ValueError`
naming the file and line, in the same spirit as the incident store's
hardened loader.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from .runner import CampaignReport, CellResult, run_campaign, run_cell
from .spec import CampaignCell, CampaignSpec

__all__ = [
    "TRACE_VERSION",
    "CellMismatch",
    "RecordedCampaign",
    "RecordedCell",
    "ReplayReport",
    "diff_traces",
    "read_trace",
    "record_campaign",
    "replay_trace",
    "write_trace",
]

TRACE_VERSION = 1

#: Result fields compared between a recorded cell and its replay.  Order is
#: the order mismatches are reported in.
_IDENTITY_FIELDS = (
    "fingerprint",
    "consistent",
    "missing_rules",
    "ground_truth",
    "hypothesis",
    "metrics",
)


@dataclass(frozen=True)
class RecordedCell:
    """One cell line of a trace: parameters, events and recorded identity."""

    cell: CampaignCell
    events: List[Dict]
    result: Dict

    @property
    def cell_id(self) -> str:
        return self.cell.cell_id


@dataclass
class RecordedCampaign:
    """A fully parsed trace file."""

    spec: CampaignSpec
    cells: List[RecordedCell] = field(default_factory=list)
    chain: str = ""
    path: Optional[Path] = None

    def cell_ids(self) -> List[str]:
        return [recorded.cell_id for recorded in self.cells]


@dataclass(frozen=True)
class CellMismatch:
    """One divergence between a recorded cell and its replay."""

    cell_id: str
    fields: Dict[str, Dict]

    def describe(self) -> str:
        parts = []
        for name, sides in self.fields.items():
            rendered = " ".join(
                f"{side}={_compact(value)}" for side, value in sides.items()
            )
            parts.append(f"{name}: {rendered}")
        return f"{self.cell_id}: " + "; ".join(parts)


def _compact(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return text if len(text) <= 64 else text[:61] + "..."


@dataclass
class ReplayReport:
    """Outcome of replaying one trace against the current code."""

    recorded: RecordedCampaign
    fresh: CampaignReport
    mismatches: List[CellMismatch] = field(default_factory=list)
    chain_recorded: str = ""
    chain_replayed: str = ""

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.chain_recorded == self.chain_replayed

    def to_dict(self) -> Dict:
        return {
            "trace": str(self.recorded.path) if self.recorded.path else None,
            "ok": self.ok,
            "cells": len(self.recorded.cells),
            "chain_recorded": self.chain_recorded,
            "chain_replayed": self.chain_replayed,
            "mismatches": [
                {"cell_id": mismatch.cell_id, "fields": mismatch.fields}
                for mismatch in self.mismatches
            ],
            "report": self.fresh.to_dict(),
        }

    def describe(self) -> str:
        path = self.recorded.path
        name = path.name if path else self.recorded.spec.name
        if self.ok:
            return f"{name}: {len(self.recorded.cells)} cell(s) replayed identically"
        chain_ok = self.chain_recorded == self.chain_replayed
        lines = [
            f"{name}: {len(self.mismatches)} mismatching cell(s), "
            f"chain {'matches' if chain_ok else 'DIVERGES'}"
        ]
        lines.extend(f"  {mismatch.describe()}" for mismatch in self.mismatches)
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #
def write_trace(report: CampaignReport, path: Union[str, Path]) -> Path:
    """Serialize one campaign run as a JSONL trace (deterministic bytes)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(
            {
                "kind": "campaign-trace",
                "version": TRACE_VERSION,
                "spec": report.spec.to_dict(),
            },
            sort_keys=True,
        ),
    ]
    for result in report.results:
        lines.append(
            json.dumps(
                {
                    "kind": "cell",
                    "cell_id": result.cell_id,
                    "cell": result.cell.to_dict(),
                    "events": result.events,
                    "result": result.identity(),
                },
                sort_keys=True,
            )
        )
    lines.append(
        json.dumps(
            {
                "kind": "end",
                "cells": len(report.results),
                "chain": report.fingerprint_chain(),
            },
            sort_keys=True,
        )
    )
    path.write_text("\n".join(lines) + "\n")
    return path


def record_campaign(spec: CampaignSpec, path: Union[str, Path]) -> CampaignReport:
    """Run ``spec`` and write its trace to ``path``; returns the live report."""
    report = run_campaign(spec)
    write_trace(report, path)
    return report


# --------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------- #
def _parse_line(path: Path, number: int, raw: str) -> Dict:
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{number}: invalid JSON ({exc.msg})") from None
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ValueError(f"{path}:{number}: trace lines must be objects with a 'kind'")
    return payload


def read_trace(path: Union[str, Path]) -> RecordedCampaign:
    """Parse one JSONL trace, validating structure line by line."""
    path = Path(path)
    # Keep physical line numbers: blank lines are skipped but still counted,
    # so every error names the line an editor would jump to.
    numbered = [
        (number, line)
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if line.strip()
    ]
    if len(numbered) < 2:
        raise ValueError(f"{path}: trace needs at least a header and an end line")

    header_line, header_raw = numbered[0]
    header = _parse_line(path, header_line, header_raw)
    if header["kind"] != "campaign-trace":
        raise ValueError(
            f"{path}:{header_line}: expected a 'campaign-trace' header, "
            f"got {header['kind']!r}"
        )
    version = header.get("version")
    if version != TRACE_VERSION:
        raise ValueError(f"{path}:{header_line}: unsupported trace version {version!r}")
    try:
        spec = CampaignSpec.from_dict(header.get("spec", {}))
    except ValueError as exc:
        raise ValueError(f"{path}:{header_line}: bad campaign spec ({exc})") from None

    recorded = RecordedCampaign(spec=spec, path=path)
    saw_end = False
    for number, raw in numbered[1:]:
        payload = _parse_line(path, number, raw)
        kind = payload["kind"]
        if saw_end:
            raise ValueError(f"{path}:{number}: content after the 'end' line")
        if kind == "cell":
            for key in ("cell", "result"):
                if key not in payload:
                    raise ValueError(f"{path}:{number}: cell line is missing {key!r}")
            try:
                cell = CampaignCell.from_dict(payload["cell"])
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: bad cell ({exc})") from None
            result = payload["result"]
            if not isinstance(result, dict):
                raise ValueError(f"{path}:{number}: cell result must be an object")
            missing = [name for name in _IDENTITY_FIELDS if name not in result]
            if missing:
                raise ValueError(
                    f"{path}:{number}: cell result is missing {', '.join(missing)}"
                )
            recorded.cells.append(
                RecordedCell(
                    cell=cell,
                    events=list(payload.get("events", [])),
                    result=result,
                )
            )
        elif kind == "end":
            if "chain" not in payload:
                raise ValueError(f"{path}:{number}: end line is missing 'chain'")
            declared = payload.get("cells")
            if declared != len(recorded.cells):
                raise ValueError(
                    f"{path}:{number}: end line declares {declared} cell(s), "
                    f"trace holds {len(recorded.cells)}"
                )
            recorded.chain = str(payload["chain"])
            saw_end = True
        else:
            raise ValueError(f"{path}:{number}: unknown trace line kind {kind!r}")
    if not saw_end:
        raise ValueError(f"{path}: trace is truncated (no 'end' line)")
    return recorded


# --------------------------------------------------------------------- #
# Replay
# --------------------------------------------------------------------- #
def replay_trace(
    trace: Union[str, Path, RecordedCampaign],
    progress: Optional[Callable[[CellResult], None]] = None,
) -> ReplayReport:
    """Re-run every recorded cell and compare against the recorded identity.

    The replay executes the *recorded* cells (not a freshly expanded grid),
    so a trace stays replayable even if the spec's canonical expansion ever
    gains new dimensions; a separate check flags traces whose cell list no
    longer matches their spec.
    """
    recorded = trace if isinstance(trace, RecordedCampaign) else read_trace(trace)
    fresh = CampaignReport(spec=recorded.spec)
    mismatches: List[CellMismatch] = []

    expected_ids = [cell.cell_id for cell in recorded.spec.cells()]
    if expected_ids != recorded.cell_ids():
        # The replay below runs the *recorded* cells; this flags that the
        # trace's cell list no longer matches its own spec's expansion.
        divergence = {
            "recorded": recorded.cell_ids(),
            "expected_from_spec": expected_ids,
        }
        mismatches.append(CellMismatch(cell_id="<spec>", fields={"cells": divergence}))

    for entry in recorded.cells:
        result = run_cell(entry.cell)
        fresh.results.append(result)
        if progress is not None:
            progress(result)
        diverged: Dict[str, Dict] = {}
        replayed = result.identity()
        for name in _IDENTITY_FIELDS:
            if replayed.get(name) != entry.result.get(name):
                diverged[name] = {
                    "recorded": entry.result.get(name),
                    "replayed": replayed.get(name),
                }
        if result.events != entry.events:
            diverged["events"] = {"recorded": entry.events, "replayed": result.events}
        if diverged:
            mismatches.append(CellMismatch(cell_id=entry.cell_id, fields=diverged))

    return ReplayReport(
        recorded=recorded,
        fresh=fresh,
        mismatches=mismatches,
        chain_recorded=recorded.chain,
        chain_replayed=fresh.fingerprint_chain(),
    )


# --------------------------------------------------------------------- #
# Diff
# --------------------------------------------------------------------- #
def diff_traces(
    left: Union[str, Path, RecordedCampaign],
    right: Union[str, Path, RecordedCampaign],
) -> List[str]:
    """Structural differences between two traces (no cells are re-run)."""
    a = left if isinstance(left, RecordedCampaign) else read_trace(left)
    b = right if isinstance(right, RecordedCampaign) else read_trace(right)
    differences: List[str] = []
    if a.spec.to_dict() != b.spec.to_dict():
        differences.append("spec differs")
    if a.chain != b.chain:
        differences.append(
            f"fingerprint chain differs: {a.chain[:12]} != {b.chain[:12]}"
        )

    by_id_a = {cell.cell_id: cell for cell in a.cells}
    by_id_b = {cell.cell_id: cell for cell in b.cells}
    for cell_id in sorted(set(by_id_a) - set(by_id_b)):
        differences.append(f"cell only in left trace: {cell_id}")
    for cell_id in sorted(set(by_id_b) - set(by_id_a)):
        differences.append(f"cell only in right trace: {cell_id}")
    for cell_id in sorted(set(by_id_a) & set(by_id_b)):
        entry_a, entry_b = by_id_a[cell_id], by_id_b[cell_id]
        for name in _IDENTITY_FIELDS:
            value_a = entry_a.result.get(name)
            value_b = entry_b.result.get(name)
            if value_a != value_b:
                differences.append(
                    f"{cell_id}: {name} differs "
                    f"({_compact(value_a)} != {_compact(value_b)})"
                )
        if entry_a.events != entry_b.events:
            differences.append(f"{cell_id}: events differ")
    return differences
