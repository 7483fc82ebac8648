"""Fault-injection campaign engine with deterministic record/replay.

The paper's evaluation is a sweep — localization accuracy across many
injected fault types, fabric sizes and policy shapes.  This package turns
that sweep into a first-class subsystem:

* :mod:`~repro.campaign.spec` — declarative grids: profiles × fault classes
  × engine modes × seeds, each point a fully seeded :class:`CampaignCell`;
* :mod:`~repro.campaign.runner` — hermetic cell execution (generate →
  deploy → inject → check → localize → score) and the aggregated
  :class:`CampaignReport` with its fingerprint chain;
* :mod:`~repro.campaign.trace` — JSONL record/replay: traces carry no
  wall-clock state, so replaying one asserts byte-identical behavior
  (the ``tests/corpus/`` CI regression gate);
* :mod:`~repro.campaign.cli` — the ``repro-campaign`` console entry point
  (``run`` / ``replay`` / ``diff``; ``python -m repro.campaign`` works too).
"""

from .runner import CampaignReport, CellResult, run_campaign, run_cell
from .spec import (
    COUNTED_FAULT_CLASSES,
    ENGINE_MODES,
    FAULT_CLASSES,
    OBJECT_FAULT_CLASSES,
    SCOPES,
    CampaignCell,
    CampaignSpec,
    FaultSpec,
)
from .trace import (
    TRACE_VERSION,
    CellMismatch,
    RecordedCampaign,
    RecordedCell,
    ReplayReport,
    diff_traces,
    read_trace,
    record_campaign,
    replay_trace,
    write_trace,
)

__all__ = [
    "COUNTED_FAULT_CLASSES",
    "ENGINE_MODES",
    "FAULT_CLASSES",
    "OBJECT_FAULT_CLASSES",
    "SCOPES",
    "TRACE_VERSION",
    "CampaignCell",
    "CampaignReport",
    "CampaignSpec",
    "CellMismatch",
    "CellResult",
    "FaultSpec",
    "RecordedCampaign",
    "RecordedCell",
    "ReplayReport",
    "diff_traces",
    "read_trace",
    "record_campaign",
    "replay_trace",
    "run_campaign",
    "run_cell",
    "write_trace",
]
