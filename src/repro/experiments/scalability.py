"""Experiment E7 — scalability of SCOUT on large controller risk models.

The paper scales the controller risk model of a 10-switch production policy
up to 500 leaf switches by adding new EPG/switch pairs, and reports SCOUT's
running time (~45 s at 200 switches, ~130 s at 500 switches on a 4-core
2.6 GHz machine).

This experiment reproduces the same scaling procedure: a synthetic policy is
generated for each fabric size (policy objects and target pairs grow
proportionally with the number of leaves), the controller risk model is
built, a fixed number of object faults is injected *at the model level*
(marking the failed edges directly — the quantity under test is the
localization algorithm, not the deployment pipeline) and SCOUT's wall-clock
time is measured.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Sequence

from ..core.scout import ScoutLocalizer
from ..policy.graph import PolicyIndex
from ..risk.controller_model import build_controller_risk_model
from ..workloads.generator import generate_workload
from ..workloads.profiles import scaled_profile, simulation_profile

__all__ = ["ScalabilityPoint", "run_scalability", "format_scalability"]

#: Seed of every fabric size's policy and of its model-level fault draws.
SEED = 17


@dataclass(frozen=True)
class ScalabilityPoint:
    """Timing measurement for one fabric size."""

    leaves: int
    elements: int
    risks: int
    edges: int
    build_seconds: float
    localize_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.localize_seconds


def _inject_model_level_faults(
    model,
    index: PolicyIndex,
    num_faults: int,
    rng: random.Random,
) -> List[str]:
    """Mark ``num_faults`` random policy objects as fully failed in the model.

    Every element depending on a chosen object gets all of its edges flagged
    fail — the same annotation a full object fault produces after the L-T
    check — without running the (much larger) deployment pipeline.
    """
    candidate_risks = [
        risk for risk in model.risks() if isinstance(risk, str) and ":" in risk
    ]
    if not candidate_risks:
        return []
    chosen = rng.sample(candidate_risks, min(num_faults, len(candidate_risks)))
    for risk in chosen:
        for element in model.elements_for_risk(risk):
            model.mark_element_failed(element)
    return chosen


def run_scalability(
    leaf_counts: Sequence[int] = (10, 50, 100, 200, 500),
    pairs_per_leaf: int = 40,
    num_faults: int = 10,
) -> List[ScalabilityPoint]:
    """Measure controller-risk-model build and SCOUT localization time."""
    base = simulation_profile()
    localizer = ScoutLocalizer()
    points: List[ScalabilityPoint] = []
    for leaves in leaf_counts:
        profile = scaled_profile(base, leaves, pairs_per_leaf=pairs_per_leaf, seed=SEED)
        workload = generate_workload(profile, validate=False)
        index = PolicyIndex(workload.policy)

        start = time.perf_counter()
        model = build_controller_risk_model(
            workload.policy, index=index, include_switch_risks=True
        )
        build_seconds = time.perf_counter() - start

        rng = random.Random(SEED + leaves)
        _inject_model_level_faults(model, index, num_faults, rng)

        start = time.perf_counter()
        localizer.localize(model)
        localize_seconds = time.perf_counter() - start

        summary = model.summary()
        points.append(
            ScalabilityPoint(
                leaves=leaves,
                elements=summary["elements"],
                risks=summary["risks"],
                edges=summary["edges"],
                build_seconds=build_seconds,
                localize_seconds=localize_seconds,
            )
        )
    return points


def format_scalability(points: Sequence[ScalabilityPoint]) -> str:
    """Render the scalability table (running time versus number of leaves)."""
    lines = [
        "Scalability — SCOUT running time on the controller risk model",
        f"{'leaves':>7} | {'elements':>9} | {'risks':>7} | {'edges':>9} | "
        f"{'build (s)':>10} | {'localize (s)':>13} | {'total (s)':>10}",
    ]
    lines.append("-" * len(lines[1]))
    for point in points:
        lines.append(
            f"{point.leaves:>7} | {point.elements:>9} | {point.risks:>7} | {point.edges:>9} | "
            f"{point.build_seconds:>10.2f} | {point.localize_seconds:>13.2f} | "
            f"{point.total_seconds:>10.2f}"
        )
    return "\n".join(lines)
