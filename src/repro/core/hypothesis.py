"""Hypothesis: the output of a fault-localization run.

A hypothesis is "a minimum set of most-likely faulty policy objects that
explains most of the observed failures" (§I).  Besides the bare object set,
the class records *why* each object was selected (which stage and with what
utility values), which observations it explains, and which observations the
algorithm could not explain — all of which the evaluation and the event
correlation engine consume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set

__all__ = ["SelectionReason", "HypothesisEntry", "Hypothesis"]


class SelectionReason(str, enum.Enum):
    """How an object ended up in the hypothesis."""

    #: Selected by the greedy hit-ratio/coverage stage (SCOUT stage 1, SCORE).
    HIT_AND_COVERAGE = "hit-and-coverage"
    #: Selected by SCOUT's change-log stage for residual observations.
    CHANGE_LOG = "change-log"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class HypothesisEntry:
    """One object in the hypothesis, with the evidence that selected it."""

    risk: Hashable
    reason: SelectionReason
    hit_ratio: float = 0.0
    coverage_ratio: float = 0.0
    iteration: int = 0
    explained: Set[Hashable] = field(default_factory=set)

    def describe(self) -> str:
        return (
            f"{self.risk} ({self.reason.value}, hit={self.hit_ratio:.2f}, "
            f"cov={self.coverage_ratio:.2f}, explains {len(self.explained)})"
        )

    def to_dict(self) -> dict:
        """JSON-ready form; risk keys and observations are stringified."""
        return {
            "risk": str(self.risk),
            "reason": self.reason.value,
            "hit_ratio": self.hit_ratio,
            "coverage_ratio": self.coverage_ratio,
            "iteration": self.iteration,
            "explained": sorted(str(obs) for obs in self.explained),
        }


@dataclass
class Hypothesis:
    """The full localization output."""

    entries: List[HypothesisEntry] = field(default_factory=list)
    explained: Set[Hashable] = field(default_factory=set)
    unexplained: Set[Hashable] = field(default_factory=set)
    iterations: int = 0
    algorithm: str = ""

    def __post_init__(self) -> None:
        # risk -> its first entry.  Not a field: ``entries`` is what is
        # compared and serialised, and it only grows through :meth:`add`.
        self._by_risk: Dict[Hashable, HypothesisEntry] = {}
        for entry in self.entries:
            self._by_risk.setdefault(entry.risk, entry)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def add(self, entry: HypothesisEntry) -> None:
        if entry.risk not in self._by_risk:
            self._by_risk[entry.risk] = entry
            self.entries.append(entry)
        self.explained.update(entry.explained)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def objects(self) -> Set[Hashable]:
        """The set of risk keys (policy-object uids / switch uids) reported faulty."""
        return set(self._by_risk)

    def entry_for(self, risk: Hashable) -> Optional[HypothesisEntry]:
        return self._by_risk.get(risk)

    def __len__(self) -> int:
        return len(self._by_risk)

    def __contains__(self, risk: Hashable) -> bool:
        return risk in self._by_risk

    def merge(self, other: "Hypothesis") -> "Hypothesis":
        """Union of two hypotheses (used to combine per-switch results)."""
        merged = Hypothesis(algorithm=self.algorithm or other.algorithm)
        for entry in (*self.entries, *other.entries):
            merged.add(entry)
        merged.explained = set(self.explained) | set(other.explained)
        merged.unexplained = (set(self.unexplained) | set(other.unexplained)) - merged.explained
        merged.iterations = max(self.iterations, other.iterations)
        return merged

    def to_dict(self) -> dict:
        """JSON-ready form; entry order (selection order) is preserved.

        Risk keys and observations are stringified for the wire: object and
        switch uids (the production risk keys) round-trip exactly, while the
        synthetic tuple observations some unit-test models use come back as
        their string form.
        """
        return {
            "algorithm": self.algorithm,
            "iterations": self.iterations,
            "entries": [entry.to_dict() for entry in self.entries],
            "explained": sorted(str(obs) for obs in self.explained),
            "unexplained": sorted(str(obs) for obs in self.unexplained),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Hypothesis":
        """Inverse of :meth:`to_dict`, preserving entry (selection) order.

        Risk keys and observations come back as the strings the wire carried.
        """
        entries = [
            HypothesisEntry(
                risk=entry["risk"],
                reason=SelectionReason(entry["reason"]),
                hit_ratio=entry.get("hit_ratio", 0.0),
                coverage_ratio=entry.get("coverage_ratio", 0.0),
                iteration=entry.get("iteration", 0),
                explained=set(entry.get("explained", ())),
            )
            for entry in data.get("entries", ())
        ]
        return cls(
            entries=entries,
            explained=set(data.get("explained", ())),
            unexplained=set(data.get("unexplained", ())),
            iterations=data.get("iterations", 0),
            algorithm=data.get("algorithm", ""),
        )

    def describe(self) -> str:
        lines = [f"Hypothesis ({self.algorithm}): {len(self)} object(s)"]
        for entry in self.entries:
            lines.append(f"  - {entry.describe()}")
        if self.unexplained:
            lines.append(f"  ({len(self.unexplained)} observation(s) left unexplained)")
        return "\n".join(lines)
