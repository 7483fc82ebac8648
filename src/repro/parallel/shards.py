"""Deterministic partitioning of a fabric's switches into shards.

The per-switch L-T checks are independent, so the only planning problem is
load balance: production fabrics have a heavy-tailed rule distribution (a
border leaf can hold 20x the rules of a compute leaf), and naive round-robin
sharding leaves one process grinding through the big TCAMs while the others
idle.  :func:`plan_shards` therefore runs the classic LPT (longest processing
time first) greedy: switches are sorted by descending weight — rule count
when the caller knows it, 1 otherwise — and each is placed on the currently
lightest shard.  Ties break on the switch uid and the shard index, so the
same inputs always produce the same plan regardless of dict/set iteration
order.

A :class:`ShardPlan` is pure data (tuples of uids); the executor layer maps
plans onto worker pools, and every batch path — the full-fabric sweep and
:mod:`repro.online.delta`'s multi-event blast radii alike — plans with the
same weighted LPT so shard shapes stay consistent across the stack.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

__all__ = ["ShardPlan", "clamp_workers", "plan_shards"]


def clamp_workers(
    requested: Optional[int] = None,
    total_items: Optional[int] = None,
    available: Optional[int] = None,
) -> int:
    """Clamp a worker-count request to something a pool can honour.

    ``requested=None`` asks for "as many as the machine has": ``available``
    (defaulting to ``os.cpu_count()``).  An explicit request is honoured even
    beyond the core count — oversubscribing a pool is legal and occasionally
    useful — but the result is always at least 1 and never more than
    ``total_items`` when given: there is no point forking more processes
    than there are shards to run.
    """
    if available is None:
        available = os.cpu_count() or 1
    workers = max(1, available) if requested is None else max(1, requested)
    if total_items is not None:
        workers = min(workers, max(1, total_items))
    return workers


@dataclass(frozen=True)
class ShardPlan:
    """An assignment of switch uids to shards (pure, picklable data)."""

    shards: Tuple[Tuple[str, ...], ...]
    #: Estimated weight (e.g. total rule count) per shard, same order.
    weights: Tuple[int, ...] = ()
    _shard_by_uid: Dict[str, int] = field(
        default=None, compare=False, repr=False  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        index = {uid: i for i, shard in enumerate(self.shards) for uid in shard}
        object.__setattr__(self, "_shard_by_uid", index)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    def __contains__(self, uid: str) -> bool:
        return uid in self._shard_by_uid

    def switches(self) -> Tuple[str, ...]:
        """Every planned switch uid, in shard order."""
        return tuple(uid for shard in self.shards for uid in shard)

    def group(self, uids: Iterable[str]) -> Tuple[Tuple[str, ...], ...]:
        """Batch an arbitrary uid subset along this plan's shard boundaries.

        Uids the plan has never seen are gathered into one extra trailing
        batch, so callers (e.g. the online delta checker, whose dirty set can
        include switches added after planning) never lose work.  Empty
        batches are dropped.
        """
        buckets: Dict[int, list] = {}
        unknown: list = []
        for uid in sorted(set(uids)):
            shard = self._shard_by_uid.get(uid)
            if shard is None:
                unknown.append(uid)
            else:
                buckets.setdefault(shard, []).append(uid)
        batches = [tuple(buckets[shard]) for shard in sorted(buckets)]
        if unknown:
            batches.append(tuple(unknown))
        return tuple(batches)

    def describe(self) -> str:
        parts = []
        for i, shard in enumerate(self.shards):
            weight = self.weights[i] if i < len(self.weights) else len(shard)
            parts.append(f"shard {i}: {len(shard)} switch(es), weight {weight}")
        return "\n".join(parts)


def plan_shards(
    switch_uids: Iterable[str],
    num_shards: int,
    weights: Optional[Mapping[str, int]] = None,
) -> ShardPlan:
    """Partition switches into ``num_shards`` balanced shards (LPT greedy).

    The plan is a pure function of the *set* of uids and their weights: the
    input order never matters, and unweighted switches default to weight 1
    (plain round-robin balance).  Requesting more shards than switches yields
    one switch per shard; empty shards are never emitted.
    """
    uids = sorted(set(switch_uids))
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    num_shards = min(num_shards, len(uids)) or 1
    if not uids:
        return ShardPlan(shards=(), weights=())

    weight = {uid: max(1, int(weights.get(uid, 1))) if weights else 1 for uid in uids}
    # LPT: heaviest switches first (the sort is stable over the sorted uids,
    # so ties break on the uid), each onto the lightest shard so far.
    heap = [(0, shard) for shard in range(num_shards)]
    assignment: Dict[int, list] = {shard: [] for shard in range(num_shards)}
    for uid in sorted(uids, key=weight.__getitem__, reverse=True):
        load, shard = heap[0]
        assignment[shard].append(uid)
        heapq.heapreplace(heap, (load + weight[uid], shard))
    loads = {shard: load for load, shard in heap}
    return ShardPlan(
        shards=tuple(tuple(sorted(assignment[shard])) for shard in range(num_shards)),
        weights=tuple(loads[shard] for shard in range(num_shards)),
    )
