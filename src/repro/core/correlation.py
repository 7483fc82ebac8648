"""Event correlation engine (§V-A).

The fault localization engine tells the admin *which policy objects* are
faulty; the event correlation engine goes one step further and infers the
*physical-level root cause* that made them faulty.  It works in the three
steps the paper describes:

1. for every object in the hypothesis, look up its change-log records to
   find when management actions were applied to it;
2. use those timestamps to narrow the device fault logs down to faults that
   were raised before the change and were still active when it was pushed;
3. match the narrowed fault records against a signature catalogue composed
   by admins (disconnected switch, TCAM overflow, ...); objects whose faults
   match no signature are tagged ``unknown``.

The signature catalogue is deliberately simple and extensible — "signatures
can be flexibly added to the engine, and the system's ability would be
naturally enhanced with more signatures".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence

from ..controller.changelog import ChangeLog, ChangeRecord
from ..fabric.faultlog import FaultCode, FaultRecord
from .hypothesis import Hypothesis

__all__ = [
    "FaultSignature",
    "RootCauseFinding",
    "CorrelationReport",
    "EventCorrelationEngine",
    "default_signatures",
]

#: A matcher receives one fault record and decides whether it fits the signature.
SignatureMatcher = Callable[[FaultRecord], bool]


@dataclass(frozen=True)
class FaultSignature:
    """A named, admin-composed description of a known physical fault."""

    name: str
    description: str
    matcher: SignatureMatcher

    def matches(self, record: FaultRecord) -> bool:
        return self.matcher(record)


def default_signatures() -> List[FaultSignature]:
    """The signature catalogue for the fault classes the simulation can raise."""

    def _code_matcher(code: FaultCode) -> SignatureMatcher:
        return lambda record: record.code is code

    return [
        FaultSignature(
            name="tcam-overflow",
            description="Switch TCAM ran out of space while installing rules",
            matcher=_code_matcher(FaultCode.TCAM_OVERFLOW),
        ),
        FaultSignature(
            name="unresponsive-switch",
            description="Switch stopped responding to the controller during a push",
            matcher=_code_matcher(FaultCode.SWITCH_UNREACHABLE),
        ),
        FaultSignature(
            name="agent-crash",
            description="Switch agent crashed in the middle of applying updates",
            matcher=_code_matcher(FaultCode.AGENT_CRASH),
        ),
        FaultSignature(
            name="control-channel-disruption",
            description="Instructions were lost between the controller and the switch agent",
            matcher=_code_matcher(FaultCode.CHANNEL_DISRUPTION),
        ),
        FaultSignature(
            name="tcam-corruption",
            description="TCAM hardware corruption rewrote installed rules",
            matcher=_code_matcher(FaultCode.TCAM_CORRUPTION),
        ),
        FaultSignature(
            name="rule-eviction",
            description="Local eviction removed installed rules behind the controller's back",
            matcher=_code_matcher(FaultCode.RULE_EVICTION),
        ),
    ]


@dataclass
class RootCauseFinding:
    """The physical-level diagnosis for one faulty policy object."""

    object_uid: Hashable
    root_cause: str
    signature: Optional[FaultSignature] = None
    matched_faults: List[FaultRecord] = field(default_factory=list)
    change_records: List[ChangeRecord] = field(default_factory=list)

    @property
    def is_known(self) -> bool:
        return self.signature is not None

    def describe(self) -> str:
        devices = sorted({fault.device_uid for fault in self.matched_faults})
        suffix = f" on {', '.join(devices)}" if devices else ""
        return f"{self.object_uid}: {self.root_cause}{suffix}"


@dataclass
class CorrelationReport:
    """All findings of one correlation run."""

    findings: List[RootCauseFinding] = field(default_factory=list)

    def known(self) -> List[RootCauseFinding]:
        return [finding for finding in self.findings if finding.is_known]

    def unknown(self) -> List[RootCauseFinding]:
        return [finding for finding in self.findings if not finding.is_known]

    def root_causes(self) -> Dict[str, List[Hashable]]:
        """Map root-cause label → objects attributed to it."""
        causes: Dict[str, List[Hashable]] = {}
        for finding in self.findings:
            causes.setdefault(finding.root_cause, []).append(finding.object_uid)
        return causes

    def describe(self) -> str:
        lines = [f"Root cause findings ({len(self.findings)} object(s)):"]
        for finding in self.findings:
            lines.append(f"  - {finding.describe()}")
        return "\n".join(lines)


class EventCorrelationEngine:
    """Correlates faulty objects with change logs and device fault logs."""

    def __init__(
        self,
        signatures: Optional[Sequence[FaultSignature]] = None,
        lookback_window: int = 1_000,
    ) -> None:
        self.signatures = list(signatures) if signatures is not None else default_signatures()
        self.lookback_window = lookback_window

    # ------------------------------------------------------------------ #
    # Correlation
    # ------------------------------------------------------------------ #
    def correlate(
        self,
        hypothesis: Hypothesis | Iterable[Hashable],
        change_log: ChangeLog,
        fault_records: Sequence[FaultRecord],
        relevant_devices: Optional[Dict[Hashable, Sequence[str]]] = None,
    ) -> CorrelationReport:
        """Produce a root-cause finding for every object in the hypothesis.

        ``relevant_devices`` optionally restricts, per object, which devices'
        fault records may explain it (the SCOUT system passes the switches on
        which the object's rules went missing); without it every device's
        faults are considered.
        """
        objects = (
            sorted(hypothesis.objects(), key=repr)
            if isinstance(hypothesis, Hypothesis)
            else sorted(set(hypothesis), key=repr)
        )
        report = CorrelationReport()
        for object_uid in objects:
            changes = change_log.for_object(object_uid) if isinstance(object_uid, str) else []
            relevant_faults = self._relevant_faults(
                object_uid, changes, fault_records, relevant_devices
            )
            finding = self._diagnose(object_uid, changes, relevant_faults)
            report.findings.append(finding)
        return report

    def _relevant_faults(
        self,
        object_uid: Hashable,
        changes: Sequence[ChangeRecord],
        fault_records: Sequence[FaultRecord],
        relevant_devices: Optional[Dict[Hashable, Sequence[str]]],
    ) -> List[FaultRecord]:
        """Step 2: faults active when the object's changes were applied."""
        allowed_devices = None
        if relevant_devices is not None:
            allowed = relevant_devices.get(object_uid)
            if allowed is not None:
                allowed_devices = set(allowed)

        candidates = [
            record
            for record in fault_records
            if allowed_devices is None or record.device_uid in allowed_devices
        ]
        if not changes:
            # No recorded change: fall back to any active fault on the
            # relevant devices (the object may have broken without a recent
            # management action, e.g. spontaneous TCAM corruption).
            return [record for record in candidates if record.cleared_at is None]
        relevant: list[FaultRecord] = []
        for change in changes:
            for record in candidates:
                if record.is_active_at(change.timestamp) or (
                    0 <= change.timestamp - record.raised_at <= self.lookback_window
                ):
                    if record not in relevant:
                        relevant.append(record)
        return relevant

    def _diagnose(
        self,
        object_uid: Hashable,
        changes: Sequence[ChangeRecord],
        faults: Sequence[FaultRecord],
    ) -> RootCauseFinding:
        """Step 3: match the narrowed fault records against the signatures."""
        for signature in self.signatures:
            matched = [record for record in faults if signature.matches(record)]
            if matched:
                return RootCauseFinding(
                    object_uid=object_uid,
                    root_cause=signature.name,
                    signature=signature,
                    matched_faults=list(matched),
                    change_records=list(changes),
                )
        return RootCauseFinding(
            object_uid=object_uid,
            root_cause="unknown",
            signature=None,
            matched_faults=[],
            change_records=list(changes),
        )
