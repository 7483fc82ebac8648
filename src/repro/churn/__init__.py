"""Deterministic churn streams + the differential soak-test oracle.

The paper injects faults into a *static* snapshot; this package is the
subsystem that keeps the snapshot moving.  A seeded, virtual-clock event
stream (tenant onboarding/offboarding, rolling rule updates, link flaps,
switch reboots, maintenance drains, interleaved fault injection) is applied
to a live controller/fabric pair while the online
:class:`~repro.online.monitor.NetworkMonitor` consumes the resulting bus
events — and at every checkpoint the incrementally maintained verification
state is required to be fingerprint-identical to a from-scratch full check.

* :mod:`~repro.churn.events` — the typed event vocabulary and its
  byte-stable JSONL serialization;
* :mod:`~repro.churn.stream` — profile → deterministic event sequence;
* :mod:`~repro.churn.driver` — :class:`ChurnDriver`: apply events through
  the real control plane, run the differential oracle, report.

Churn shapes per workload profile live in
:mod:`repro.workloads.churn_profiles`; the campaign engine sweeps churn via
its ``churn:N`` fault class and the operator service exposes ``POST /churn``.
"""

from ..workloads.churn_profiles import (
    CHURN_EVENT_KINDS,
    ChurnMix,
    ChurnProfile,
    churn_profile_for,
    churn_profile_names,
)
from .driver import CheckpointRecord, ChurnDriver, ChurnReport, ChurnRule
from .events import (
    Checkpoint,
    ChurnEvent,
    FaultBurst,
    LinkFlap,
    PolicyAdd,
    PolicyModify,
    PolicyRemove,
    SwitchDrain,
    SwitchReboot,
    events_to_jsonl,
)
from .stream import generate_churn_stream

__all__ = [
    "CHURN_EVENT_KINDS",
    "Checkpoint",
    "CheckpointRecord",
    "ChurnDriver",
    "ChurnEvent",
    "ChurnMix",
    "ChurnProfile",
    "ChurnReport",
    "ChurnRule",
    "FaultBurst",
    "LinkFlap",
    "PolicyAdd",
    "PolicyModify",
    "PolicyRemove",
    "SwitchDrain",
    "SwitchReboot",
    "churn_profile_for",
    "churn_profile_names",
    "events_to_jsonl",
    "generate_churn_stream",
]
