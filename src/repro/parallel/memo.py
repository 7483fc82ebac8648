"""The worker-resident compiled-state cache behind the warm pool.

A shard worker's dominant cost is re-checking rule sets it has already
seen: across repeated audits the overwhelming majority of switches are
byte-identical to the previous round.

:class:`CompiledStateCache` memoizes the *outcome* of one switch check —
equivalence verdict plus missing/extra match keys — keyed by digests of the
logical and deployed rule sets and the checker configuration.  The outcome
is uid-independent (rule-set semantics are a pure function of the match
keys, the same argument that makes parent-side rehydration exact), so two
switches carrying identical rule sets share one entry, and an unchanged
switch is never rebuilt across rounds as long as its worker process lives.

The digest covers the exact match-key sequence, so any rule add/remove/reorder
changes it and the stale entry is simply never looked up again (the LRU
bound evicts it eventually).  There is no explicit invalidation protocol to
get wrong — and nothing semantic rides on *hits*, so a cold cache, an
evicted entry or a respawned worker only ever costs time, never identity.

The module-level :data:`WORKER_CACHE` instance lives in whichever process
runs :func:`repro.parallel.engine.run_shard` — a long-lived pool worker
under :class:`repro.parallel.pool.WarmWorkerPool`, or the parent itself
when the shards run inline (which is how the warm path stays testable, and
covered, on single-core machines).  The parent may run inline shards on
several threads at once (the service's job threads: an audit beside a
campaign's parallel cells), so ``run_shard`` holds
:attr:`CompiledStateCache.lock` while it touches the LRU or an atom table.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

from ..rules import MatchKey
from ..verify.atoms import AtomTable
from ..verify.encoding import RuleSpace

__all__ = [
    "CompiledOutcome",
    "CompiledStateCache",
    "WORKER_CACHE",
    "reset_worker_cache",
    "ruleset_digest",
]

#: Entries kept per worker process.  An entry is a verdict plus the missing/
#: extra key tuples — small for healthy switches, bounded by TCAM size for
#: violating ones — so even the datacenter profile (512 leaves, one entry
#: per distinct rule-set pair) fits with a wide margin.
DEFAULT_CACHE_ENTRIES = 4096


def ruleset_digest(keys: Sequence[MatchKey]) -> str:
    """A stable digest of one rule set's exact match-key sequence.

    Order-sensitive on purpose: compile order is deterministic for an
    unchanged fabric, and treating a reorder as a miss is always sound —
    the check is simply recomputed.  Duplicates count, matching the
    serial engine's view of the rule list.
    """
    hasher = hashlib.sha256()
    for key in keys:
        hasher.update(repr(key).encode("utf-8"))
    return hasher.hexdigest()


@dataclass(frozen=True)
class CompiledOutcome:
    """The uid-independent result of one switch check (what gets memoized)."""

    equivalent: bool
    missing: Tuple[MatchKey, ...]
    extra: Tuple[MatchKey, ...]
    logical_count: int
    deployed_count: int
    engine: str


class CompiledStateCache:
    """A bounded LRU of :class:`CompiledOutcome` keyed by rule-set digests."""

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        self.max_entries = max_entries
        #: Held by ``run_shard`` across observe → lookup → check → store.
        self.lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, CompiledOutcome]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        # One long-lived AtomTable per rule space (keyed by field widths):
        # the worker's checker folds each rule set it actually checks into
        # it, so atoms are patched, never rebuilt, for the worker's lifetime.
        self._atom_tables: Dict[Tuple[int, int, int, int], AtomTable] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> Optional[CompiledOutcome]:
        """The cached outcome for ``key`` (marking it recently used), or None."""
        outcome = self._entries.get(key)
        if outcome is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return outcome

    def store(self, key: Hashable, outcome: CompiledOutcome) -> None:
        self._entries[key] = outcome
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def atom_table(self, space_widths: Tuple[int, int, int, int]) -> AtomTable:
        """The process-lifetime atom table for one rule space's widths.

        Sharing one table across shards/rounds is sound because atomic
        predicates only *refine* monotonically — a table observed from other
        switches' rules never changes a verdict, it just splits atoms both
        sides of any comparison treat uniformly.
        """
        table = self._atom_tables.get(space_widths)
        if table is None:
            vrf_bits, epg_bits, protocol_bits, port_bits = space_widths
            table = AtomTable(
                RuleSpace(
                    vrf_bits=vrf_bits,
                    epg_bits=epg_bits,
                    protocol_bits=protocol_bits,
                    port_bits=port_bits,
                )
            )
            self._atom_tables[space_widths] = table
        return table

    def clear(self) -> None:
        """Drop every entry, zero the counters and renew the lock (tests and
        worker start: a forked worker may inherit the lock held by a parent
        thread that does not exist in the child)."""
        self.lock = threading.Lock()
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self._atom_tables.clear()

    def stats(self) -> Dict[str, Any]:
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "atom_tables": {"spaces": len(self._atom_tables)},
        }


#: The per-process cache :func:`repro.parallel.engine.run_shard` consults.
WORKER_CACHE = CompiledStateCache()


def reset_worker_cache() -> None:
    """Clear this process's worker cache (test isolation helper)."""
    WORKER_CACHE.clear()
