"""Correlation IDs: one ContextVar-propagated identity per unit of work.

Every externally triggered unit of work — an HTTP request, a monitor poll,
a churn event, a campaign cell — mints (or inherits) a **correlation id**
and runs under it.  Spans opened while a corr id is active are stamped with
it (see :meth:`repro.obs.trace.Span.__enter__`), flight-recorder events
carry it, and incidents remember the id of the poll that opened them — so
"which request caused this incident, and what did the checker do for it?"
is one grep over ids instead of a timestamp hunt.

The id travels the same way the active :class:`~repro.obs.trace.TraceCollector`
does: a :class:`~contextvars.ContextVar`, so nested work on the same thread
inherits it for free and worker processes get it shipped explicitly (the
:class:`~repro.parallel.engine.ShardTask` carries the parent's id and
:func:`~repro.parallel.engine.run_shard` restores it with
:func:`correlated`).

Ids are readable and cheap: ``req-1a2b-000007`` is the seventh id minted by
pid ``0x1a2b`` under the ``req`` prefix.  No randomness — the repo's
determinism discipline extends to its debugging artifacts.

This module is distinct from :mod:`repro.core.correlation`, the paper's
SCOUT event-correlation *stage*; the shared word is a coincidence of domain.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

__all__ = ["correlated", "current_corr_id", "new_corr_id"]

_ACTIVE_CORR: ContextVar[Optional[str]] = ContextVar("repro_corr_id", default=None)

_COUNTER = itertools.count(1)


def new_corr_id(prefix: str = "corr") -> str:
    """Mint a fresh correlation id: ``<prefix>-<pid hex>-<counter hex>``."""
    return f"{prefix}-{os.getpid():x}-{next(_COUNTER):06x}"


def current_corr_id() -> Optional[str]:
    """The ambient correlation id, or ``None`` outside any correlated work."""
    return _ACTIVE_CORR.get()


@contextmanager
def correlated(corr_id: Optional[str] = None, prefix: str = "corr") -> Iterator[str]:
    """Run the block under a correlation id; yields the id in effect.

    An explicit ``corr_id`` always wins.  Otherwise the ambient id is
    reused when one is active — a monitor poll triggered by an HTTP request
    joins that request's trail — and a fresh one is minted under ``prefix``
    when none is, so standalone polls, churn events and campaign cells each
    get their own identity.
    """
    active = corr_id if corr_id is not None else _ACTIVE_CORR.get()
    if active is None:
        active = new_corr_id(prefix)
    token = _ACTIVE_CORR.set(active)
    try:
        yield active
    finally:
        _ACTIVE_CORR.reset(token)
