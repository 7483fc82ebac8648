"""Turn raw spans into attribution reports.

Two consumers:

* :func:`attribution` / :func:`format_attribution` — the generic "where did
  the time go" table printed by ``repro-trace``: per stage name, how many
  spans, total (inclusive) seconds, and self (exclusive) seconds.
* :func:`parallel_stage_breakdown` — the ROADMAP-item-1 measurement: a
  decomposition of one parallel ``ScoutSystem.check`` wall-clock into named
  stages (identity proof / plan / pickle / worker spawn+IPC / in-worker
  unpickle, BDD build, check, serialize / merge) that should tile the
  measured wall time.
  Worker-side busy time is normalised by the number of concurrently busy
  workers so the stages are wall-clock-comparable.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from .export import SpanLike, span_dicts

__all__ = [
    "StageStat",
    "attribution",
    "format_attribution",
    "parallel_stage_breakdown",
]


@dataclass
class StageStat:
    """Aggregated timing for all spans sharing one name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "self_seconds": self.self_seconds,
        }
        if self.counters:
            payload["counters"] = dict(self.counters)
        return payload


def _durations(payload: Dict[str, Any]) -> float:
    return max(0.0, float(payload["end"]) - float(payload["start"]))


def attribution(spans: Iterable[SpanLike]) -> List[StageStat]:
    """Aggregate spans by name into total/self time, sorted by total desc.

    Self time is a span's duration minus the duration of its direct
    children, clamped at zero (adopted worker spans run concurrently, so a
    parent's children can legitimately sum past its own duration).
    """
    payloads = span_dicts(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for payload in payloads:
        parent_id = payload.get("parent_id")
        if parent_id is not None:
            child_time[parent_id] += _durations(payload)

    stats: Dict[str, StageStat] = {}
    for payload in payloads:
        stat = stats.get(payload["name"])
        if stat is None:
            stat = stats[payload["name"]] = StageStat(payload["name"])
        duration = _durations(payload)
        stat.count += 1
        stat.total_seconds += duration
        stat.self_seconds += max(
            0.0, duration - child_time.get(payload["span_id"], 0.0)
        )
        for key, value in payload.get("counters", {}).items():
            stat.counters[key] = stat.counters.get(key, 0.0) + value
    return sorted(stats.values(), key=lambda s: (-s.total_seconds, s.name))


def format_attribution(
    stats: Sequence[StageStat], wall_seconds: Optional[float] = None
) -> str:
    """Render an attribution table as fixed-width text."""
    name_width = max([len("stage")] + [len(stat.name) for stat in stats])
    header = f"{'stage':<{name_width}}  {'count':>7}  {'total s':>10}  {'self s':>10}"
    if wall_seconds:
        header += f"  {'% wall':>7}"
    lines = [header, "-" * len(header)]
    for stat in stats:
        line = (
            f"{stat.name:<{name_width}}  {stat.count:>7}  "
            f"{stat.total_seconds:>10.4f}  {stat.self_seconds:>10.4f}"
        )
        if wall_seconds:
            line += f"  {100.0 * stat.total_seconds / wall_seconds:>6.1f}%"
        lines.append(line)
        if stat.counters:
            rendered = ", ".join(
                f"{key}={int(value) if float(value).is_integer() else value}"
                for key, value in sorted(stat.counters.items())
            )
            lines.append(f"{'':<{name_width}}    [{rendered}]")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Parallel wall-clock decomposition
# ---------------------------------------------------------------------- #
def _descendant_ids(payloads: List[Dict[str, Any]], root_names: Set[str]) -> Set[int]:
    """Span ids that are (transitive) descendants of any span named in roots."""
    children: Dict[Optional[int], List[int]] = defaultdict(list)
    for payload in payloads:
        children[payload.get("parent_id")].append(payload["span_id"])
    stack = [p["span_id"] for p in payloads if p["name"] in root_names]
    inside: Set[int] = set()
    while stack:
        span_id = stack.pop()
        for child_id in children.get(span_id, ()):
            if child_id not in inside:
                inside.add(child_id)
                stack.append(child_id)
    return inside


def parallel_stage_breakdown(
    spans: Iterable[SpanLike],
    wall_seconds: float,
    workers: int,
) -> Dict[str, Any]:
    """Decompose a traced parallel check into wall-clock-comparable stages.

    Serial stages (compile, collect, identity proof, plan, pickle, merge)
    contribute their duration directly.  Worker-side stages ran on up to ``workers``
    processes concurrently, so their busy time is divided by the number of
    workers actually used before being compared against wall clock.  The
    ``worker_spawn_and_ipc`` stage is the dispatch window not accounted for
    by normalised worker busy time: worker respawns, argument pickling
    transit, and result transit (the pool itself is the caller's and is
    built before the check).  The ``cache`` block
    aggregates the per-shard memo-cache counters (``cache_hits`` /
    ``cache_misses`` on each ``worker.shard`` span), so the breakdown also
    says *why* a warm round was fast.
    """
    payloads = span_dicts(spans)
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    cache_hits = 0
    cache_misses = 0
    for payload in payloads:
        totals[payload["name"]] += _durations(payload)
        counts[payload["name"]] += 1
        if payload["name"] == "worker.shard":
            counters = payload.get("counters", {})
            cache_hits += int(counters.get("cache_hits", 0))
            cache_misses += int(counters.get("cache_misses", 0))

    shard_count = counts.get("worker.shard", 0)
    workers_used = max(1, min(workers, shard_count))
    worker_busy = totals.get("worker.shard", 0.0)

    in_worker = _descendant_ids(payloads, {"worker.check"})
    bdd_build_in_worker = sum(
        _durations(p)
        for p in payloads
        if p["name"] == "verify.bdd.build" and p["span_id"] in in_worker
    )

    def norm(seconds: float) -> float:
        return seconds / workers_used

    dispatch = totals.get("parallel.dispatch", 0.0)
    stages = {
        "compile_logical": totals.get("check.compile_logical", 0.0),
        "collect_deployed": totals.get("check.collect_deployed", 0.0),
        "identity_proof": totals.get("parallel.identity_proof", 0.0),
        "plan": totals.get("parallel.plan", 0.0),
        "pickle": totals.get("parallel.build_tasks", 0.0),
        "worker_spawn_and_ipc": max(0.0, dispatch - norm(worker_busy)),
        "worker_unpickle": norm(totals.get("worker.unpickle", 0.0)),
        "worker_bdd_build": norm(bdd_build_in_worker),
        "worker_check": norm(
            max(0.0, totals.get("worker.check", 0.0) - bdd_build_in_worker)
        ),
        "worker_serialize": norm(totals.get("worker.serialize", 0.0)),
        "merge": totals.get("parallel.merge", 0.0),
    }
    accounted = sum(stages.values())
    coverage = accounted / wall_seconds if wall_seconds > 0 else 0.0
    dominant = max(stages, key=lambda name: stages[name]) if stages else ""
    cache_total = cache_hits + cache_misses
    return {
        "wall_seconds": wall_seconds,
        "workers": workers,
        "workers_used": workers_used,
        "shards": shard_count,
        "stages": stages,
        "accounted_seconds": accounted,
        "coverage": coverage,
        "dominant_stage": dominant,
        # Worker memo-cache activity for the traced round, aggregated from
        # the per-shard counters: a warm round shows hit_rate near 1.0, a
        # cold round exactly 0.0.
        "cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "hit_rate": cache_hits / cache_total if cache_total else 0.0,
        },
    }
