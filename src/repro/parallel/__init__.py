"""Sharded parallel verification.

The L-T equivalence check is embarrassingly parallel across switches, so
this package partitions the fabric into balanced shards
(:mod:`~repro.parallel.shards`), runs each shard's per-switch checks in a
persistent warm worker pool with sticky shard routing
(:mod:`~repro.parallel.pool`) — or inline for batches too small to be worth
a round trip (:mod:`~repro.parallel.executor`) — and merges the results
into one network-wide :class:`~repro.verify.checker.EquivalenceReport`
(:mod:`~repro.parallel.engine`).  Workers memoize per-pair compiled state
keyed by rule-set digests (:mod:`~repro.parallel.memo`), so an unchanged
switch is never re-derived across rounds.

The entry points most callers want live on the existing classes:

* :meth:`repro.verify.checker.EquivalenceChecker.check_many` — the batch
  API over (uid, logical, deployed) triples;
* :meth:`repro.core.system.ScoutSystem.check` with ``parallel=True`` —
  the full-fabric sweep, sharded.

This is the audit path's machinery only: the online monitor re-checks its
dirty switches in place and never enters this package.
"""

from .engine import (
    ShardResult,
    ShardTask,
    SwitchWorkOutcome,
    SwitchWorkUnit,
    check_switches,
    plan_for_report,
    run_shard,
)
from .memo import (
    WORKER_CACHE,
    CompiledOutcome,
    CompiledStateCache,
    reset_worker_cache,
    ruleset_digest,
)
from .pool import BrokenWorkerPool, WarmWorkerPool
from .shards import ShardPlan, clamp_workers, plan_shards

__all__ = [
    "BrokenWorkerPool",
    "CompiledOutcome",
    "CompiledStateCache",
    "ShardPlan",
    "ShardResult",
    "ShardTask",
    "SwitchWorkOutcome",
    "SwitchWorkUnit",
    "WORKER_CACHE",
    "WarmWorkerPool",
    "check_switches",
    "clamp_workers",
    "plan_for_report",
    "plan_shards",
    "reset_worker_cache",
    "ruleset_digest",
    "run_shard",
]
