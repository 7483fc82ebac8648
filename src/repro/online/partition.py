"""Deterministic switch-ownership partitioning for the sharded monitor.

A partitioned :class:`~repro.online.monitor.NetworkMonitor` runs one
:class:`~repro.online.delta.IncrementalChecker` per partition, each owning a
disjoint slice of the fabric's switches.  :class:`PartitionMap` is the
assignment: built once with the same rule-count-weighted LPT planner the
parallel sweep uses (:func:`~repro.parallel.shards.plan_shards`), so the
split is a pure function of the switch uid set and their deployed rule
counts — two monitors over the same fabric always agree, and a snapshot can
carry the map across a restart byte-for-byte.

Switches the map has never seen (a leaf commissioned after the split) fall
back to a stable hash of the uid, so ownership stays deterministic without
replanning; a *rebalance* is simply restoring a snapshot into a monitor
built with a different partition count, which replans and reshards the
restored state (see ``NetworkMonitor.from_snapshot``).
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..parallel.shards import plan_shards

__all__ = ["PartitionMap"]


class PartitionMap:
    """A deterministic switch-uid → partition-index assignment."""

    def __init__(self, shards: Iterable[Iterable[str]]) -> None:
        self.shards: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(shard) for shard in shards
        )
        if not self.shards:
            self.shards = ((),)
        self._owner: Dict[str, int] = {
            uid: index for index, shard in enumerate(self.shards) for uid in shard
        }

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def plan(
        cls,
        switch_uids: Iterable[str],
        partitions: int,
        weights: Optional[Mapping[str, int]] = None,
    ) -> "PartitionMap":
        """LPT-balance ``switch_uids`` into exactly ``partitions`` slots.

        Unlike the shard planner (which drops empty shards), the monitor
        needs a *fixed* partition count — every partition runs a checker
        whether or not it currently owns a switch — so short plans are
        padded with empty slots.
        """
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        plan = plan_shards(switch_uids, partitions, weights=weights)
        shards: List[Tuple[str, ...]] = [tuple(shard) for shard in plan.shards]
        while len(shards) < partitions:
            shards.append(())
        return cls(shards)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.shards)

    def partition_of(self, uid: str) -> int:
        """The owning partition (stable hash fallback for unknown uids)."""
        owner = self._owner.get(uid)
        if owner is not None:
            return owner
        return zlib.crc32(uid.encode("utf-8")) % len(self.shards)

    def owned(self, partition: int) -> Tuple[str, ...]:
        """The planned uids of one partition (fallback-routed uids excluded)."""
        return self.shards[partition]

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {"shards": [list(shard) for shard in self.shards]}

    @classmethod
    def from_dict(cls, data: Dict) -> "PartitionMap":
        shards = data.get("shards") if isinstance(data, dict) else None
        if not isinstance(shards, list) or not all(
            isinstance(shard, list) for shard in shards
        ):
            raise ValueError("partition map 'shards' must be a list of lists")
        return cls(shards)
