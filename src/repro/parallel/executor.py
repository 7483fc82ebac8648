"""Where a shard batch runs.

There are two routes and the batch size picks between them: below
:data:`SMALL_FABRIC_SWITCHES` (or whenever the caller passes no executor)
:func:`~repro.parallel.engine.check_switches` runs the shards inline in the
calling process; at or above it the one pool owner
(:class:`~repro.core.system.ScoutSystem`) passes its persistent
:class:`~repro.parallel.pool.WarmWorkerPool`, whose memo caches survive from
round to round.
"""

from __future__ import annotations

__all__ = ["SMALL_FABRIC_SWITCHES"]

#: Below this many switches a worker pool is not worth its round trip:
#: per-switch checks take well under a millisecond while pickling a shard
#: and waking a worker costs several.
SMALL_FABRIC_SWITCHES = 8
