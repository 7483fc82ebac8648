"""The sharded parallel L-T equivalence engine.

Most switches of a fabric are healthy, and a healthy switch needs no engine:
when its logical and deployed rules are the same *set* of match keys the two
sides have the same semantics by construction.  That rule lives in the
checker (:meth:`~repro.verify.checker.EquivalenceChecker.identity_proof`,
over key sets the two sides already carry — a compiled
:class:`~repro.rules.RuleSequence`, a TCAM's
:class:`~repro.rules.TcamSnapshot`, each taken as it is);
:func:`check_switches` asks it in the calling process first, and only what
it cannot settle is planned, pickled and shipped.  ``engine="bdd"``, the
oracle, is never settled that way and proves every switch in full.

For what is shipped, the unit of distribution is a *shard* of switches, not
a single switch: per-switch checks are only milliseconds each, so shipping
them one at a time would drown in pickling and scheduling overhead.  A shard
task is a pure-data description of its switches' rule sets:

* rules cross the process boundary as **match keys** — the
  ``(vrf, src, dst, protocol, port, action)`` tuples that fully determine
  L-T semantics — never as policy-laden :class:`~repro.rules.TcamRule`
  objects, keeping pickles small.  Identical key *sequences* within a shard
  are interned into **shared rule buffers**, pickled once per shard
  round-trip and referenced by index from the work units.  That is twin
  switches, rarely a switch's own two sides: agents install in instruction
  order and the compiler emits in pair order, so even a healthy leaf's L
  and T are the same set in different sequences (6 of 507 dc512 leaves
  shared a buffer when measured);
* the worker digests each buffer and consults its process-local
  :data:`~repro.parallel.memo.WORKER_CACHE` before doing any real work: a
  rule-set pair it has checked before — in an earlier round of a warm
  :class:`~repro.parallel.pool.WarmWorkerPool`, or on a twin switch in
  this round — is answered from the memoized outcome without running a
  check.  Only cache misses rebuild key-carrying rule sequences
  (:meth:`RuleSequence.from_keys`) and run the same delta-scoped checker
  the serial sweep runs (atom tables and BDD managers never cross process
  boundaries);
* the worker returns match keys for the missing/extra sides, and the
  parent *rehydrates* those keys back into the original rule objects —
  provenance intact — so a merged :class:`EquivalenceReport` is
  indistinguishable from one produced by the serial sweep.

Rehydration — and the memo cache riding on it — is exact because rule-set
semantics are a pure function of the match keys: a logical rule lands in
``missing_rules`` iff its key does, whichever process (or cache entry)
evaluated it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    Collection,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..obs import TraceCollector, activated, correlated, current, current_corr_id, span
from ..rules import MatchKey, RuleCarrier, RuleSequence, TcamRule
from ..verify.checker import EquivalenceChecker, EquivalenceReport, SwitchCheckResult
from ..verify.encoding import RuleSpace
from .memo import WORKER_CACHE, CompiledOutcome, ruleset_digest
from .shards import ShardPlan, clamp_workers, plan_shards

__all__ = [
    "ShardResult",
    "ShardTask",
    "SwitchWorkUnit",
    "SwitchWorkOutcome",
    "check_switches",
    "plan_for_report",
    "run_shard",
]

#: Switch triple accepted by the batch APIs: (uid, logical rules, deployed rules).
SwitchTriple = Tuple[str, Sequence[TcamRule], Collection[TcamRule]]


@dataclass(frozen=True)
class SwitchWorkUnit:
    """One switch's rule sets, as indices into the shard's shared buffers."""

    switch_uid: str
    logical_ref: int
    deployed_ref: int


@dataclass(frozen=True)
class SwitchWorkOutcome:
    """What the worker learned about one switch (match keys only)."""

    switch_uid: str
    equivalent: bool
    missing: Tuple[MatchKey, ...]
    extra: Tuple[MatchKey, ...]
    logical_count: int
    deployed_count: int
    engine: str


@dataclass(frozen=True)
class ShardTask:
    """A batch of work units plus the checker configuration to apply.

    ``buffers`` holds the shard's distinct match-key sequences exactly once;
    work units reference them by index, so a rule set shared by many
    switches — or by a switch's own logical and deployed sides — crosses
    the process boundary in a single copy.  The rule space travels as its
    field bit-widths — four integers — so the worker can rebuild an
    identical encoder without pickling checker state.
    """

    units: Tuple[SwitchWorkUnit, ...]
    buffers: Tuple[Tuple[MatchKey, ...], ...]
    engine: str
    space_widths: Tuple[int, int, int, int]
    #: When true the worker records spans for its own stages (digest+lookup,
    #: check, serialize) and ships them back inside the ShardResult.
    trace: bool = False
    #: The dispatching context's correlation id, shipped so worker-side spans
    #: carry the same identity as the request/poll that caused them.
    corr_id: Optional[str] = None


@dataclass(frozen=True)
class ShardResult:
    """What a worker sends back: outcomes, cache counters, optional trace.

    ``spans`` are plain dicts (:meth:`repro.obs.Span.to_dict`) so the
    payload pickles without dragging collector state across the process
    boundary; the parent re-attaches them with ``TraceCollector.adopt``.
    ``cache_hits``/``cache_misses`` count this shard's work units against
    the worker-process memo cache (always reported, traced or not).
    """

    outcomes: Tuple[SwitchWorkOutcome, ...]
    spans: Tuple[Dict[str, Any], ...] = field(default_factory=tuple)
    cache_hits: int = 0
    cache_misses: int = 0


def _intern_keys(
    buffers: List[Tuple[MatchKey, ...]],
    index: Dict[Tuple[MatchKey, ...], int],
    rules: RuleCarrier,
) -> int:
    """Intern one rule set's key sequence into the shard buffers."""
    keys = rules.keys()
    position = index.get(keys)
    if position is None:
        position = len(buffers)
        index[keys] = position
        buffers.append(keys)
    return position


def _compiled_outcome(result: SwitchCheckResult) -> CompiledOutcome:
    return CompiledOutcome(
        equivalent=result.equivalent,
        missing=tuple(rule.match_key() for rule in result.missing_rules),
        extra=tuple(rule.match_key() for rule in result.extra_rules),
        logical_count=result.logical_count,
        deployed_count=result.deployed_count,
        engine=result.engine,
    )


def run_shard(task: ShardTask) -> ShardResult:
    """Worker entry point: check every switch of one shard, cache-first.

    Must stay a module-level function so both ``fork`` and ``spawn`` start
    methods can import it.  Each work unit is resolved against the
    process-local :data:`~repro.parallel.memo.WORKER_CACHE` under a key of
    (logical digest, deployed digest, checker configuration); only misses
    reconstruct rules from the shared buffers and run the real checker,
    and the fresh outcome is stored for every later round that lands on
    this worker.  When ``task.trace`` is set, the worker opens a local
    collector and times its own stages — buffer digesting ("unpickle"),
    cache lookups plus the checks themselves (with rules hydrated lazily
    per missed buffer), and outcome serialization — so the parent can
    attribute in-worker cost without any shared state.
    """
    collector = TraceCollector(enabled=task.trace)
    config = (task.engine, task.space_widths)
    # Restore the dispatcher's correlation id so worker spans are stamped at
    # birth.  Without one, leave the context alone: the parent's adopt() then
    # stamps its own ambient id, and a worker-minted id would shadow it.
    context = correlated(task.corr_id) if task.corr_id is not None else nullcontext()
    with activated(collector), context:
        with span("worker.shard", switches=len(task.units)) as shard_span:
            with span("worker.unpickle"):
                digests = tuple(ruleset_digest(buffer) for buffer in task.buffers)
            hits = 0
            misses = 0
            hydrated: Dict[int, RuleSequence] = {}

            def rules_for(ref: int) -> RuleSequence:
                rules = hydrated.get(ref)
                if rules is None:
                    rules = hydrated[ref] = RuleSequence.from_keys(task.buffers[ref])
                return rules

            resolved: List[CompiledOutcome] = []
            # Inline shards can run on sibling threads (the service's job
            # threads); the cache and its atom tables take one writer at a time.
            with span("worker.check"), WORKER_CACHE.lock:
                # The atom table outlives the shard: a warm worker patches
                # atoms only for genuinely new protocol/port values.
                checker = EquivalenceChecker(
                    rule_space=RuleSpace(*task.space_widths),
                    engine=task.engine,
                    atoms=WORKER_CACHE.atom_table(task.space_widths),
                )
                for unit in task.units:
                    key: Hashable = (
                        digests[unit.logical_ref],
                        digests[unit.deployed_ref],
                    ) + config
                    cached = WORKER_CACHE.lookup(key)
                    if cached is None:
                        misses += 1
                        result = checker.check_switch(
                            unit.switch_uid,
                            rules_for(unit.logical_ref),
                            rules_for(unit.deployed_ref),
                        )
                        cached = _compiled_outcome(result)
                        WORKER_CACHE.store(key, cached)
                    else:
                        hits += 1
                    resolved.append(cached)
            with span("worker.serialize"):
                outcomes = tuple(
                    SwitchWorkOutcome(
                        switch_uid=unit.switch_uid,
                        equivalent=outcome.equivalent,
                        missing=outcome.missing,
                        extra=outcome.extra,
                        logical_count=outcome.logical_count,
                        deployed_count=outcome.deployed_count,
                        engine=outcome.engine,
                    )
                    for unit, outcome in zip(task.units, resolved)
                )
            shard_span.count("cache_hits", hits)
            shard_span.count("cache_misses", misses)
    spans = tuple(recorded.to_dict() for recorded in collector.spans())
    return ShardResult(
        outcomes=outcomes, spans=spans, cache_hits=hits, cache_misses=misses
    )


def _rehydrate(
    outcome: SwitchWorkOutcome,
    logical: RuleSequence,
    deployed: RuleCarrier,
) -> SwitchCheckResult:
    """Map a worker outcome back onto the parent's original rule objects.

    Membership by match key reproduces the serial engine's selection exactly
    (including order and duplicates), while restoring the provenance fields
    the risk-model augmentation needs.  Equivalent switches — the vast
    majority on a healthy fabric — skip the rule scans entirely.
    """
    return SwitchCheckResult(
        switch_uid=outcome.switch_uid,
        equivalent=outcome.equivalent,
        missing_rules=logical.select(set(outcome.missing)),
        extra_rules=deployed.select(set(outcome.extra)),
        logical_count=outcome.logical_count,
        deployed_count=outcome.deployed_count,
        engine=outcome.engine,
    )


def _space_widths(space: RuleSpace) -> Tuple[int, int, int, int]:
    return (
        space.vrf.width,
        space.src_epg.width,
        space.protocol.width,
        space.port.width,
    )


def plan_for_report(report: EquivalenceReport, num_shards: int) -> ShardPlan:
    """A shard plan over a finished report's switches, weighted by rule count.

    Downstream consumers (shard-level risk-model augmentation, batched
    re-checks) reuse this so every stage of a parallel run agrees on which
    switch belongs to which shard.
    """
    weights = {
        uid: result.logical_count + result.deployed_count
        for uid, result in report.results.items()
    }
    return plan_shards(report.results, num_shards, weights=weights)


def check_switches(
    checker: EquivalenceChecker,
    switches: Iterable[SwitchTriple],
    executor=None,
    max_workers: Optional[int] = None,
    plan: Optional[ShardPlan] = None,
) -> EquivalenceReport:
    """Check a batch of switches, possibly in parallel, into one report.

    ``checker`` is the :class:`~repro.verify.checker.EquivalenceChecker`
    whose configuration (engine, rule space) every worker replicates.  The
    merged report lists switches in sorted-uid order — byte-identical to
    :meth:`EquivalenceChecker.check_network` over the same snapshots,
    whatever the executor, shard plan or cache state.  With
    ``executor=None`` the shards run inline in the calling process.

    A switch the checker's identity proof settles is answered here, before
    anything is planned or pickled (see the module docstring); the
    checker's ``identity_proofs`` / ``dispatched`` counters say how a sweep
    split.  Under ``engine="bdd"`` every switch is dispatched.

    Passing a :class:`~repro.parallel.pool.WarmWorkerPool` as ``executor``
    keeps the workers (and their memo caches) alive across calls; the plan
    is a pure function of the uids and weights, so an unchanged set of
    failing switches lands on the same workers round after round.
    """
    collector = current()
    tracing = collector is not None and collector.enabled

    triples: Dict[str, Tuple[RuleSequence, RuleCarrier]] = {
        switch_uid: (RuleSequence.of(logical), RuleSequence.of(deployed))
        for switch_uid, logical, deployed in switches
    }

    proven: Dict[str, SwitchCheckResult] = {}
    with span("parallel.identity_proof", switches=len(triples)) as proof_span:
        for switch_uid, (logical, deployed) in triples.items():
            proof = checker.identity_proof(switch_uid, logical, deployed)
            if proof is not None:
                proven[switch_uid] = proof
        pending = {uid: triples[uid] for uid in triples if uid not in proven}
        checker.dispatched += len(pending)
        proof_span.count("identity_proofs", len(proven))
        proof_span.count("dispatched", len(pending))

    with span("parallel.plan", switches=len(pending)):
        if plan is None:
            weights = {
                uid: len(logical) + len(deployed)
                for uid, (logical, deployed) in pending.items()
            }
            num_shards = clamp_workers(max_workers, total_items=len(pending))
            plan = plan_shards(pending, num_shards, weights=weights)

    with span("parallel.build_tasks") as build_span:
        tasks = []
        interned = 0
        for shard in plan.group(pending):
            buffers: List[Tuple[MatchKey, ...]] = []
            index: Dict[Tuple[MatchKey, ...], int] = {}
            units = tuple(
                SwitchWorkUnit(
                    switch_uid=uid,
                    logical_ref=_intern_keys(buffers, index, pending[uid][0]),
                    deployed_ref=_intern_keys(buffers, index, pending[uid][1]),
                )
                for uid in shard
            )
            interned += len(buffers)
            tasks.append(
                ShardTask(
                    units=units,
                    buffers=tuple(buffers),
                    engine=checker.engine,
                    space_widths=_space_widths(checker.rule_space),
                    trace=tracing,
                    corr_id=current_corr_id(),
                )
            )
        build_span.count("shards", len(tasks))
        build_span.count("rule_buffers", interned)

    # Without an executor the shards run right here through the builtin map;
    # a caller that wants processes passes its own WarmWorkerPool.
    shard_map = executor.map if executor is not None else map
    outcomes: Dict[str, SwitchWorkOutcome] = {}
    cache_hits = 0
    cache_misses = 0
    with span("parallel.dispatch", shards=len(tasks)) as dispatch_span:
        for shard_result in shard_map(run_shard, tasks):
            for outcome in shard_result.outcomes:
                outcomes[outcome.switch_uid] = outcome
            cache_hits += shard_result.cache_hits
            cache_misses += shard_result.cache_misses
            if tracing and shard_result.spans:
                # run_shard records onto its own local collector (even
                # when executed in-process), so the shipped spans are
                # the only copy — adopt them under the dispatch span.
                collector.adopt(shard_result.spans, parent=dispatch_span)
        dispatch_span.count("cache_hits", cache_hits)
        dispatch_span.count("cache_misses", cache_misses)

    with span("parallel.merge"):
        report = EquivalenceReport()
        for switch_uid in sorted(triples):
            report.results[switch_uid] = proven.get(switch_uid) or _rehydrate(
                outcomes[switch_uid], *pending[switch_uid]
            )
    return report
