"""A persistent worker pool with sticky shard routing.

A stock ``concurrent.futures`` process pool hands tasks to whichever worker
grabs the shared call queue first — fine for one-shot batches, fatal for
memoization: round N's shard can land on a different process than round
N-1's identical shard, and the memoized outcomes and atom tables in
:data:`~repro.parallel.memo.WORKER_CACHE` never get a second look.

:class:`WarmWorkerPool` therefore owns its workers directly.  Each worker
is a long-lived daemon process with a dedicated inbox/outbox queue pair,
and ``map`` routes task *i* to worker ``i % workers`` — the shard plan is a
pure function of the switch uids and weights, so an unchanged fabric's
shard *i* is the same shard every round and always lands on the same
worker, whose memo cache answers it without running a check.

Fault model: a worker that dies mid-round (OOM kill, segfault, ``os._exit``
in a test) is detected by liveness polling, its queues are discarded (a
fresh pair per respawn, so no half-read round can leak into the next), and
the **whole round is retried** on the repaired pool.  Shard tasks are
deterministic pure functions, and surviving workers answer their share from
cache, so a retry changes wall-clock only — never the merged report's
fingerprint.  With ``max_workers <= 1`` the pool degrades to inline
execution in the calling process, where the same module-level cache
provides the warm behavior (this is what keeps the warm path testable on
single-core machines).

The pool is executor-shaped (``map`` / ``shutdown`` / context manager) and
always caller-owned: :func:`~repro.parallel.engine.check_switches` never
shuts it down, and the owner decides when the warm state dies.  The
library has one owner, holding at most one pool as ``.pool``:
:class:`~repro.core.system.ScoutSystem` (the online monitor owns none and
spawns nothing).  Benches build their own.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..obs.recorder import dump_flightrecord, record_event
from .memo import reset_worker_cache
from .shards import clamp_workers

__all__ = ["BrokenWorkerPool", "WarmWorkerPool"]

#: How long one liveness poll waits on a worker's outbox before re-checking
#: that the process is still alive.
_POLL_SECONDS = 0.05

#: How long ``shutdown(wait=True)`` gives a worker to exit cleanly before
#: escalating to ``terminate()``.
_JOIN_SECONDS = 2.0


class BrokenWorkerPool(RuntimeError):
    """Raised when a round keeps losing workers past the retry budget."""


class _WorkerDied(Exception):
    """Internal: one worker's process vanished before delivering its results."""


def _worker_main(inbox: multiprocessing.Queue, outbox: multiprocessing.Queue) -> None:
    """Worker loop: apply shipped callables until the ``None`` sentinel.

    Replies are pre-pickled in the worker so a serialization failure is
    synchronous and reported as a normal error payload — never a silently
    dropped feeder-thread item that would deadlock the parent's collect.

    The memo cache is reset on entry: under the ``fork`` start method the
    child inherits whatever the parent process warmed, which would make a
    worker's "cold" behavior depend on the parent's history.  Warm state
    must be earned by this worker's own rounds.
    """
    reset_worker_cache()
    while True:
        item = inbox.get()
        if item is None:
            break
        seq, fn, args = item
        try:
            payload: Tuple[int, bool, Any] = (seq, True, fn(*args))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            payload = (seq, False, exc)
        try:
            raw = pickle.dumps(payload)
        except Exception as exc:  # result or exception itself unpicklable
            raw = pickle.dumps(
                (seq, False, RuntimeError(f"unpicklable worker reply: {exc}"))
            )
        outbox.put(raw)


@dataclass
class _WorkerHandle:
    process: multiprocessing.Process
    inbox: multiprocessing.Queue
    outbox: multiprocessing.Queue


class WarmWorkerPool:
    """Long-lived workers with per-process memo caches and sticky routing."""

    def __init__(self, max_workers: Optional[int] = None, max_retries: int = 2) -> None:
        self.workers = clamp_workers(max_workers)
        self.max_retries = max_retries
        self._handles: List[_WorkerHandle] = []
        self._closed = False
        # Lifetime accounting, surfaced through stats() and the benches.
        self.rounds = 0
        self.respawns = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def running_workers(self) -> int:
        """Live worker processes right now (0 before first map / after close)."""
        return sum(1 for handle in self._handles if handle.process.is_alive())

    def _spawn(self) -> _WorkerHandle:
        inbox: multiprocessing.Queue = multiprocessing.Queue()
        outbox: multiprocessing.Queue = multiprocessing.Queue()
        process = multiprocessing.Process(
            target=_worker_main, args=(inbox, outbox), daemon=True
        )
        process.start()
        return _WorkerHandle(process=process, inbox=inbox, outbox=outbox)

    def _ensure_workers(self) -> None:
        while len(self._handles) < self.workers:
            self._handles.append(self._spawn())

    def _respawn(self, position: int) -> None:
        """Replace one dead worker in place, keeping every sticky index.

        The old queues are discarded wholesale — a fresh pair per respawn —
        so no half-consumed round can bleed stale results into the next.
        """
        stale = self._handles[position]
        if stale.process.is_alive():
            stale.process.terminate()
        stale.process.join(timeout=_JOIN_SECONDS)
        stale.inbox.close()
        stale.outbox.close()
        self._handles[position] = self._spawn()
        self.respawns += 1
        # No-ops unless a flight recorder is installed (the service daemon);
        # a dead worker is exactly the moment the black box exists for.
        record_event("pool.respawn", position=position, respawns=self.respawns)
        dump_flightrecord("worker-respawn", position=position)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Stop every worker and drop the warm state; idempotent."""
        for handle in self._handles:
            try:
                handle.inbox.put(None)
            except (ValueError, OSError):
                pass  # queue already closed with a dead worker
        for handle in self._handles:
            handle.process.join(timeout=_JOIN_SECONDS if wait else 0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=_JOIN_SECONDS)
            handle.inbox.close()
            handle.outbox.close()
        self._handles = []
        self._closed = True

    close = shutdown

    def __enter__(self) -> "WarmWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def map(
        self,
        fn: Callable[..., Any],
        *iterables: Iterable[Any],
        timeout: Optional[float] = None,
        chunksize: int = 1,
    ) -> Iterator[Any]:
        """Run ``fn`` over the zipped iterables, sticky-routed and eager.

        Results come back in submission order (executor semantics).  The
        round retries as a whole when a worker dies — see the module
        docstring for why that cannot change the merged report.
        """
        if self._closed:
            raise RuntimeError("cannot map on a shut-down WarmWorkerPool")
        items = list(zip(*iterables))
        if not items:
            return iter(())
        if self.workers <= 1:
            results = [fn(*args) for args in items]
        else:
            attempts = 0
            while True:
                self._ensure_workers()
                try:
                    results = self._run_round(fn, items)
                    break
                except _WorkerDied:
                    attempts += 1
                    if attempts > self.max_retries:
                        self.shutdown()
                        raise BrokenWorkerPool(
                            f"round lost workers {attempts} time(s); giving up"
                        ) from None
        self.rounds += 1
        for result in results:
            hits = getattr(result, "cache_hits", None)
            if isinstance(hits, int):
                self.cache_hits += hits
                self.cache_misses += getattr(result, "cache_misses", 0)
        return iter(results)

    def _run_round(self, fn: Callable[..., Any], items: List[tuple]) -> List[Any]:
        assignments: List[List[Tuple[int, tuple]]] = [[] for _ in self._handles]
        for seq, args in enumerate(items):
            assignments[seq % len(self._handles)].append((seq, args))
        for handle, batch in zip(self._handles, assignments):
            for seq, args in batch:
                handle.inbox.put((seq, fn, args))

        results: List[Any] = [None] * len(items)
        errors: List[Tuple[int, BaseException]] = []
        dead: List[int] = []
        for position, (handle, batch) in enumerate(zip(self._handles, assignments)):
            try:
                self._collect(handle, len(batch), results, errors)
            except _WorkerDied:
                dead.append(position)
        if dead:
            # Survivors are fully drained (their collects completed), so the
            # repaired pool starts the retry with every queue empty.
            for position in dead:
                self._respawn(position)
            raise _WorkerDied()
        if errors:
            raise min(errors)[1]
        return results

    def _collect(
        self,
        handle: _WorkerHandle,
        expected: int,
        results: List[Any],
        errors: List[Tuple[int, BaseException]],
    ) -> None:
        received = 0
        while received < expected:
            try:
                raw = handle.outbox.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if not handle.process.is_alive():
                    raise _WorkerDied() from None
                continue
            seq, ok, value = pickle.loads(raw)
            if ok:
                results[seq] = value
            else:
                errors.append((seq, value))
            received += 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        total = self.cache_hits + self.cache_misses
        return {
            "workers": self.workers,
            "running_workers": self.running_workers,
            "rounds": self.rounds,
            "respawns": self.respawns,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hits / total if total else 0.0,
        }
