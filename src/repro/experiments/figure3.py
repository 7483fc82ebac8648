"""Experiment E1 — Figure 3: number of EPG pairs per policy object.

The paper analyses the policy configuration of a production cluster
(~30 switches, 6 VRFs, 615 EPGs, 386 contracts, 160 filters) and plots, per
object type, the CDF of how many EPG pairs share each object.  The headline
observations are:

* most VRFs serve >100 pairs, 10% serve >1,000, 2-3% serve >10,000;
* ~50% of EPGs belong to >100 pairs;
* ~80% of switches carry ≥1,000 pairs;
* 70% of filters and 80% of contracts serve <10 pairs.

This experiment regenerates the five CDF series from the synthetic
production-cluster workload and reports the same summary fractions so the
shape can be compared directly against the paper's bullets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..policy.graph import PolicyIndex, epg_pairs_per_object
from ..policy.objects import ObjectType
from ..workloads.generator import generate_workload
from ..workloads.profiles import WorkloadProfile, production_cluster_profile

__all__ = ["Figure3Series", "run_figure3", "format_figure3"]

#: Order of the series in the paper's legend.
_SERIES_ORDER = [
    ObjectType.SWITCH,
    ObjectType.VRF,
    ObjectType.EPG,
    ObjectType.FILTER,
    ObjectType.CONTRACT,
]


@dataclass
class Figure3Series:
    """One CDF series: the sorted pair counts of every object of one type."""

    object_type: ObjectType
    pair_counts: List[int]

    def fraction_at_least(self, threshold: int) -> float:
        """Fraction of objects shared by at least ``threshold`` EPG pairs."""
        if not self.pair_counts:
            return 0.0
        shared = sum(1 for count in self.pair_counts if count >= threshold)
        return shared / len(self.pair_counts)

    def percentile(self, q: float) -> int:
        """The q-quantile (0..1) of the pair counts."""
        if not self.pair_counts:
            return 0
        ordered = sorted(self.pair_counts)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]


def run_figure3(
    profile: Optional[WorkloadProfile] = None,
) -> Dict[ObjectType, Figure3Series]:
    """Generate the cluster workload and compute the pairs-per-object series."""
    profile = profile or production_cluster_profile()
    workload = generate_workload(profile)
    index = PolicyIndex(workload.policy)
    counts = epg_pairs_per_object(workload.policy, index=index)
    series: Dict[ObjectType, Figure3Series] = {}
    for object_type in _SERIES_ORDER:
        per_object = counts.get(object_type, {})
        series[object_type] = Figure3Series(
            object_type=object_type,
            pair_counts=sorted(per_object.values()),
        )
    return series


def format_figure3(series: Dict[ObjectType, Figure3Series]) -> str:
    """Render the summary table comparing against the paper's observations."""
    lines = [
        "Figure 3 — EPG pairs per policy object (synthetic production cluster)",
        f"{'object':>10} | {'count':>6} | {'median':>7} | {'p90':>7} | "
        f"{'>=10':>6} | {'>=100':>6} | {'>=1000':>7} | {'>=10000':>8}",
    ]
    lines.append("-" * len(lines[1]))
    for object_type in _SERIES_ORDER:
        s = series[object_type]
        lines.append(
            f"{object_type.value:>10} | {len(s.pair_counts):>6} | {s.percentile(0.5):>7} | "
            f"{s.percentile(0.9):>7} | {s.fraction_at_least(10):>6.2f} | "
            f"{s.fraction_at_least(100):>6.2f} | {s.fraction_at_least(1000):>7.2f} | "
            f"{s.fraction_at_least(10000):>8.2f}"
        )
    return "\n".join(lines)
