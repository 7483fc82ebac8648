"""Declarative campaign specifications.

A campaign is a *grid*: the cartesian product of workload profiles, fault
classes, engine modes and seeds.  Each grid point is a
:class:`CampaignCell` — one fully seeded end-to-end run (generate → deploy →
inject → check → localize → score) whose every input is captured by the cell
itself, so the same cell always reproduces the same
:class:`~repro.verify.checker.EquivalenceReport` fingerprint, the same
localization output and the same accuracy metrics.  That determinism is what
the trace recorder (:mod:`repro.campaign.trace`) and the CI regression gate
are built on.

Fault classes mirror the paper's evaluation sweep (§VI) plus the §V-B
physical use cases:

* ``object-fault`` — one random full/partial object fault (§VI-A);
* ``multi-fault`` — ``count`` simultaneous object faults on distinct
  objects, the Figures 8-10 x-axis;
* ``tcam-overflow`` — deploy onto leaves whose TCAM is sized below the
  workload's peak occupancy (§V-B use case 1);
* ``unresponsive-switch`` — silence the busiest leaf before the first push
  (§V-B use cases 2-3);
* ``churn`` — a seeded churn stream of ``count`` events (tenant rule
  add/remove/modify, link flaps, reboots, drains, interleaved faults)
  applied through :class:`~repro.churn.driver.ChurnDriver`, with the
  differential oracle gating every checkpoint (see :mod:`repro.churn`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from ..faults.base import FaultKind
from ..workloads.profiles import profile_names

__all__ = [
    "COUNTED_FAULT_CLASSES",
    "ENGINE_MODES",
    "FAULT_CLASSES",
    "OBJECT_FAULT_CLASSES",
    "SCOPES",
    "CampaignCell",
    "CampaignSpec",
    "FaultSpec",
]

#: Fault classes a campaign can sweep.
FAULT_CLASSES = (
    "object-fault",
    "multi-fault",
    "tcam-overflow",
    "unresponsive-switch",
    "churn",
)
#: Object-fault classes (the ones that go through the FaultInjector).
OBJECT_FAULT_CLASSES = ("object-fault", "multi-fault")
#: Fault classes whose ``count`` knob is meaningful (multi-fault: number of
#: simultaneous object faults; churn: number of churn-stream events).
COUNTED_FAULT_CLASSES = ("multi-fault", "churn")
#: Verification engine modes a cell can run under: *how* checks execute
#: (a fresh system's sweep, or a refresh of a checker that audited the
#: deployment first), not which checker engine proves a switch.
ENGINE_MODES = ("serial", "incremental")
#: Localization scopes (see :class:`~repro.core.system.ScoutSystem`).
SCOPES = ("controller", "switch")


@dataclass(frozen=True)
class FaultSpec:
    """One fault class plus its knobs.

    ``count`` is the number of simultaneous object faults for ``multi-fault``
    and the churn-stream length for ``churn``; the other classes are
    single-cause (``count=1``).  ``fault_kinds`` restricts
    the full/partial draw for object faults.  ``capacity_fraction`` sizes
    the constrained TCAM for ``tcam-overflow`` cells as a fraction of the
    workload's peak per-leaf occupancy.
    """

    kind: str
    count: int = 1
    fault_kinds: Tuple[str, ...] = ("full", "partial")
    capacity_fraction: float = 0.7

    def __post_init__(self) -> None:
        object.__setattr__(self, "fault_kinds", tuple(self.fault_kinds))
        if self.kind not in FAULT_CLASSES:
            known = ", ".join(FAULT_CLASSES)
            raise ValueError(f"unknown fault class {self.kind!r} (known: {known})")
        if self.count < 1:
            raise ValueError(f"fault count must be >= 1, got {self.count}")
        if self.kind not in COUNTED_FAULT_CLASSES and self.count != 1:
            raise ValueError(f"fault class {self.kind!r} is single-cause (count=1)")
        if not self.fault_kinds:
            raise ValueError("fault_kinds must not be empty")
        for name in self.fault_kinds:
            FaultKind(name)  # raises ValueError for unknown kinds
        if not 0.0 < self.capacity_fraction < 1.0:
            raise ValueError(
                f"capacity_fraction must be in (0, 1), got {self.capacity_fraction}"
            )

    @property
    def label(self) -> str:
        """Compact identifier used in cell ids (``multi-fault-x3``, ``churn-x50``)."""
        if self.kind in COUNTED_FAULT_CLASSES:
            return f"{self.kind}-x{self.count}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI shorthand ``kind`` or ``kind:count``."""
        kind, sep, count = text.partition(":")
        kind = kind.strip()
        if not sep:
            return cls(kind=kind)
        try:
            parsed = int(count)
        except ValueError:
            raise ValueError(f"invalid fault count in {text!r}") from None
        return cls(kind=kind, count=parsed)

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "fault_kinds": list(self.fault_kinds),
            "capacity_fraction": self.capacity_fraction,
        }

    @classmethod
    def from_dict(cls, data: Union[Dict, str]) -> "FaultSpec":
        """Build from a spec dict (or the CLI shorthand string)."""
        if isinstance(data, str):
            return cls.parse(data)
        if not isinstance(data, dict):
            raise ValueError(
                f"fault spec must be a dict or string, got {type(data).__name__}"
            )
        unknown = set(data) - {"kind", "count", "fault_kinds", "capacity_fraction"}
        if unknown:
            raise ValueError(f"unknown fault spec key(s): {', '.join(sorted(unknown))}")
        if "kind" not in data:
            raise ValueError("fault spec is missing 'kind'")
        try:
            return cls(
                kind=data["kind"],
                count=int(data.get("count", 1)),
                fault_kinds=tuple(data.get("fault_kinds", ("full", "partial"))),
                capacity_fraction=float(data.get("capacity_fraction", 0.7)),
            )
        except TypeError as exc:
            # Wrong-typed field values (a null count, a scalar fault_kinds)
            # surface as the same ValueError contract as other spec problems.
            raise ValueError(f"bad fault spec field: {exc}") from None


@dataclass(frozen=True)
class CampaignCell:
    """One grid point: everything needed to reproduce one end-to-end run."""

    profile: str
    seed: int
    fault: FaultSpec
    engine: str
    scope: str = "controller"

    def __post_init__(self) -> None:
        _validate_profile(self.profile)
        _validate_engine(self.engine)
        _validate_scope(self.scope)

    @property
    def cell_id(self) -> str:
        """Stable human-readable identity (also the trace's cell key)."""
        return (
            f"{self.profile}/seed{self.seed}/{self.fault.label}/"
            f"{self.engine}/{self.scope}"
        )

    def to_dict(self) -> Dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "fault": self.fault.to_dict(),
            "engine": self.engine,
            "scope": self.scope,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignCell":
        for key in ("profile", "seed", "fault", "engine"):
            if key not in data:
                raise ValueError(f"campaign cell is missing {key!r}")
        return cls(
            profile=str(data["profile"]),
            seed=int(data["seed"]),
            fault=FaultSpec.from_dict(data["fault"]),
            engine=str(data["engine"]),
            scope=str(data.get("scope", "controller")),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative sweep: profiles × faults × engines × seeds."""

    name: str
    profiles: Tuple[str, ...]
    seeds: Tuple[int, ...] = (1,)
    faults: Tuple[FaultSpec, ...] = (FaultSpec("object-fault"),)
    engines: Tuple[str, ...] = ("serial",)
    scope: str = "controller"

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(self.profiles))
        object.__setattr__(self, "seeds", tuple(int(seed) for seed in self.seeds))
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "engines", tuple(self.engines))
        if not self.name:
            raise ValueError("campaign name must not be empty")
        if not self.profiles or not self.seeds or not self.faults or not self.engines:
            raise ValueError(
                "campaign spec needs at least one profile, seed, fault and engine"
            )
        for profile in self.profiles:
            _validate_profile(profile)
        for engine in self.engines:
            _validate_engine(engine)
        _validate_scope(self.scope)
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("campaign seeds must be distinct")

    def cells(self) -> List[CampaignCell]:
        """The grid in its canonical order (profile → fault → engine → seed).

        The order is part of the trace contract: recorded and replayed runs
        iterate the same cells in the same sequence, so the fingerprint
        *chain* is comparable line by line.
        """
        return [
            CampaignCell(
                profile=profile,
                seed=seed,
                fault=fault,
                engine=engine,
                scope=self.scope,
            )
            for profile, fault, engine, seed in itertools.product(
                self.profiles, self.faults, self.engines, self.seeds
            )
        ]

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "profiles": list(self.profiles),
            "seeds": list(self.seeds),
            "faults": [fault.to_dict() for fault in self.faults],
            "engines": list(self.engines),
            "scope": self.scope,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise ValueError(f"campaign spec must be a dict, got {type(data).__name__}")
        known_keys = {"name", "profiles", "seeds", "faults", "engines", "scope"}
        unknown = set(data) - known_keys
        if unknown:
            raise ValueError(
                f"unknown campaign spec key(s): {', '.join(sorted(unknown))}"
            )
        if "profiles" not in data:
            raise ValueError("campaign spec is missing 'profiles'")
        profiles = _as_sequence(data["profiles"], "profiles")
        seeds = _as_sequence(data.get("seeds", (1,)), "seeds")
        faults = _as_sequence(data.get("faults", ("object-fault",)), "faults")
        engines = _as_sequence(data.get("engines", ("serial",)), "engines")
        try:
            return cls(
                name=str(data.get("name", "campaign")),
                profiles=tuple(str(name) for name in profiles),
                seeds=tuple(int(seed) for seed in seeds),
                faults=tuple(FaultSpec.from_dict(entry) for entry in faults),
                engines=tuple(str(engine) for engine in engines),
                scope=str(data.get("scope", "controller")),
            )
        except TypeError as exc:
            raise ValueError(f"bad campaign spec field: {exc}") from None


def _as_sequence(value, label: str) -> Sequence:
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise ValueError(f"campaign spec {label!r} must be a list")
    return list(value)


def _validate_profile(profile: str) -> None:
    known = profile_names()
    if profile not in known:
        raise ValueError(
            f"unknown workload profile {profile!r} (known: {', '.join(known)})"
        )


def _validate_engine(engine: str) -> None:
    if engine not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine mode {engine!r} (known: {', '.join(ENGINE_MODES)})"
        )


def _validate_scope(scope: str) -> None:
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r} (known: {', '.join(SCOPES)})")
