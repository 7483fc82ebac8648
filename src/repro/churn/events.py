"""Typed churn events: the vocabulary of a churn stream.

A churn stream is a sequence of frozen event records, each carrying only
*seeds and parameters* — never concrete object uids.  Concrete targets (which
EPG pair a new tenant rule wires, which leaf flaps, which objects fault) are
resolved by the :class:`~repro.churn.driver.ChurnDriver` at apply time, by
drawing from ``random.Random(event seed)`` over sorted candidate lists.  The
split keeps generation state-free: the stream is a pure function of the
:class:`~repro.workloads.churn_profiles.ChurnProfile`, and applying the same
stream to the same workload visits the same targets, because the fabric state
at every step is itself a pure function of the stream prefix.

Streams serialize to JSON Lines with sorted keys, so the byte-identity
property the campaign traces established extends to churn: same profile +
seed ⇒ the same ``to_jsonl()`` bytes, forever.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Type

__all__ = [
    "ChurnEvent",
    "PolicyAdd",
    "PolicyModify",
    "PolicyRemove",
    "LinkFlap",
    "SwitchReboot",
    "SwitchDrain",
    "FaultBurst",
    "Checkpoint",
    "event_from_dict",
    "events_to_jsonl",
]


@dataclass(frozen=True)
class ChurnEvent:
    """Base class: every event knows its position in the stream."""

    seq: int

    #: Stable wire identifier; keys the ``event_from_dict`` dispatch and the
    #: per-kind counters in the churn report.
    kind = "churn"

    def to_dict(self) -> Dict:
        payload = {"kind": self.kind}
        payload.update(asdict(self))
        return payload

    def describe(self) -> str:
        return f"#{self.seq} {self.kind}"


@dataclass(frozen=True)
class PolicyAdd(ChurnEvent):
    """Tenant onboarding of one new rule: filter + contract wiring an EPG pair.

    ``rule_id`` names the minted objects (``churn-<rule_id>``); ``draw_seed``
    seeds the pair selection and the filter entries.
    """

    rule_id: int
    draw_seed: int

    kind = "policy-add"


@dataclass(frozen=True)
class PolicyModify(ChurnEvent):
    """Rolling rule update: replace a churn-created filter's entries in place."""

    draw_seed: int

    kind = "policy-modify"


@dataclass(frozen=True)
class PolicyRemove(ChurnEvent):
    """Tenant offboarding of one churn-created rule: unwire, then delete."""

    draw_seed: int

    kind = "policy-remove"


@dataclass(frozen=True)
class LinkFlap(ChurnEvent):
    """A leaf's control link flaps: down for ``down_ticks``, then resynced."""

    draw_seed: int
    down_ticks: int

    kind = "link-flap"


@dataclass(frozen=True)
class SwitchReboot(ChurnEvent):
    """A leaf reboots: TCAM and agent view wiped, controller re-pushes."""

    draw_seed: int

    kind = "switch-reboot"


@dataclass(frozen=True)
class SwitchDrain(ChurnEvent):
    """Maintenance drain: the leaf ignores pushes for ``duration_events``."""

    draw_seed: int
    duration_events: int

    kind = "switch-drain"


@dataclass(frozen=True)
class FaultBurst(ChurnEvent):
    """Interleaved fault injection through the existing :class:`FaultInjector`."""

    draw_seed: int
    count: int = 1

    kind = "fault"


@dataclass(frozen=True)
class Checkpoint(ChurnEvent):
    """Run the differential oracle: incremental state vs. from-scratch check."""

    kind = "checkpoint"


_EVENT_TYPES: Dict[str, Type[ChurnEvent]] = {
    cls.kind: cls
    for cls in (
        PolicyAdd,
        PolicyModify,
        PolicyRemove,
        LinkFlap,
        SwitchReboot,
        SwitchDrain,
        FaultBurst,
        Checkpoint,
    )
}


def event_from_dict(data: Dict) -> ChurnEvent:
    """Rebuild one event from its ``to_dict`` payload (loud on bad input)."""
    if not isinstance(data, dict):
        raise ValueError(f"churn event must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        known = ", ".join(sorted(_EVENT_TYPES))
        raise ValueError(f"unknown churn event kind {kind!r} (known: {known})")
    fields = {key: value for key, value in data.items() if key != "kind"}
    try:
        return cls(**fields)
    except TypeError as exc:
        raise ValueError(f"bad {kind!r} churn event: {exc}") from None


def events_to_jsonl(events: Iterable[ChurnEvent]) -> str:
    """Serialize a stream as JSON Lines (deterministic bytes, sorted keys)."""
    return "".join(
        json.dumps(event.to_dict(), sort_keys=True) + "\n" for event in events
    )
