"""The benchmark's workloads: what each one sets up, times and checks.

Every workload drives the system through public entry points with their
default arguments, from this one process, one operation in flight (a closed
loop).  The fabric of a workload is its named profile at the profile's own
seed; ``--seed`` drives everything that *happens* to that fabric — the fault
draws, the churn stream, the storm's victims — so ten seeds give ten different
operation sequences of the same cost class (see README.md, "Seeds").

Each workload function reports into a :class:`recorder.Recorder`.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import random
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.churn import Checkpoint, ChurnDriver, generate_churn_stream
from repro.controller.controller import Controller
from repro.core.system import ScoutReport, ScoutSystem
from repro.exceptions import ChurnDivergenceError
from repro.experiments.common import restore_tcam, snapshot_tcam
from repro.faults import FaultInjector, InjectedFault
from repro.obs import TraceCollector, parallel_stage_breakdown
from repro.online.monitor import MonitorPass, NetworkMonitor
from repro.parallel.engine import plan_for_report
from repro.parallel.executor import SMALL_FABRIC_SWITCHES
from repro.parallel.shards import clamp_workers
from repro.risk.augment import (
    augment_controller_model,
    augment_controller_model_sharded,
)
from repro.risk.controller_model import build_controller_risk_model
from repro.workloads import (
    CHURN_EVENT_KINDS,
    WorkloadProfile,
    churn_profile_for,
    datacenter_profile,
    generate_workload,
    production_cluster_profile,
    resolve_profile,
    small_profile,
    testbed_profile,
)

from recorder import Recorder, high_percentile

__all__ = ["WORKLOADS", "audit_problems"]

T = TypeVar("T")

NPROC = os.cpu_count() or 1
#: ``ScoutSystem``'s default change window; deployment and earlier fault
#: records are aged past it so SCOUT's recency stage sees only the current
#: faults, as ``ChurnDriver.for_workload`` and the campaign runner do.
CHANGE_WINDOW = 100
#: Probability that a storm drops any one TCAM rule.  A full wipe would make
#: every cycle identical, and the partitioned monitor's worker memo would
#: answer all but the first from cache.
STORM_LOSS = 0.5
#: Churn streams are generated this many events per budgeted second, several
#: times what the fastest run consumes, so the budget ends a run, not the stream.
CHURN_EVENTS_PER_SECOND = 40
#: Cycles of the storm's partitioned leg (traced runs only).
PARTITIONED_CYCLES = 4


# ---------------------------------------------------------------------- #
# Shared pieces
# ---------------------------------------------------------------------- #
def _deploy(rec: Recorder, profile: WorkloadProfile) -> Controller:
    with rec.spans.span("workloads.generate"):
        generated = generate_workload(profile)
    with rec.spans.span("fabric.deploy"):
        controller = Controller(generated.policy, generated.fabric)
        controller.deploy()
    controller.clock.tick(CHANGE_WINDOW + 1)
    return controller


def _set_up(rec: Recorder, times: int, build: Callable[[], T], close: Callable[[T], None]) -> T:
    """Build the system under test ``times`` times, each timed as a set-up.

    Only the last one is kept; the earlier ones are closed and collected
    first so they do not count towards the next one's time or memory.
    """
    built = None
    for _ in range(times):
        if built is not None:
            close(built)
            built = None
            gc.collect()
        with rec.setup():
            built = build()
    return built


def _monitor_counters(
    rec: Recorder,
    monitor: NetworkMonitor,
    before: Dict[str, int],
    first_pass: int,
    bus_events: int,
    polls: List[float],
) -> None:
    """Per-operation deltas of the counters ``monitor.stats()`` exports."""
    after = monitor.stats()
    ops = len(rec.samples)
    for counter in (
        "switch_checks",
        "digest_short_circuits",
        "pair_recompiles",
        "index_rebuilds",
        "index_patches",
        "atom_patches",
        "passes",
    ):
        rec.layer[f"online.{counter}"] = (after[counter] - before[counter]) / ops
    checks = after["switch_checks"] - before["switch_checks"]
    shorts = after["digest_short_circuits"] - before["digest_short_circuits"]
    # A dirty switch is either answered by its digest or re-checked.
    rec.layer["online.short_circuit_ratio"] = (
        shorts / (shorts + checks) if shorts + checks else 0.0
    )
    passes = monitor.passes[first_pass:]
    rec.layer["online.incidents_opened"] = sum(len(p.opened) for p in passes) / ops
    rec.layer["online.incidents_resolved"] = sum(len(p.resolved) for p in passes) / ops
    timed_seconds = sum(sample.seconds for sample in rec.samples)
    rec.layer["online.bus_events_per_op"] = bus_events / ops
    rec.layer["online.bus_events_per_s"] = bus_events / timed_seconds
    tail, _ = high_percentile(polls)
    rec.layer["online.poll_ms_p50"] = 1000.0 * statistics.median(polls)
    rec.layer["online.poll_ms_hi"] = 1000.0 * tail


# ---------------------------------------------------------------------- #
# Audits
# ---------------------------------------------------------------------- #
def audit_problems(report: ScoutReport, injected: Sequence[InjectedFault]) -> List[str]:
    """What an audit got wrong about a fabric whose faults are known exactly.

    The L-T check must report precisely the rules the injector removed, per
    switch, and no extra rule.
    """
    expected: Dict[str, set] = {}
    for fault in injected:
        for switch_uid, rules in fault.removed_rules.items():
            expected.setdefault(switch_uid, set()).update(
                rule.match_key() for rule in rules
            )
    found = {
        switch_uid: {rule.match_key() for rule in rules}
        for switch_uid, rules in report.equivalence.missing_rules().items()
    }
    problems = []
    wrong = sorted(
        uid for uid in set(found) | set(expected) if found.get(uid) != expected.get(uid)
    )
    if wrong:
        problems.append(f"missing rules differ from the injected faults on {wrong[:5]}")
    if report.equivalence.total_extra():
        problems.append(f"{report.equivalence.total_extra()} extra rule(s) reported")
    return problems


def _relevant_devices(controller: Controller, hypothesis, missing) -> Dict:
    """Each faulty object's devices, as ``ScoutSystem.localize`` derives them."""
    devices: Dict = {}
    for switch_uid, rules in missing.items():
        for rule in rules:
            for uid in rule.objects():
                touched = devices.setdefault(uid, [])
                if switch_uid not in touched:
                    touched.append(switch_uid)
    for risk in hypothesis.objects():
        if isinstance(risk, str) and risk in controller.fabric:
            devices.setdefault(risk, [risk])
    return devices


def _decomposed_audit(
    rec: Recorder, system: ScoutSystem, workers: Optional[int]
) -> ScoutReport:
    """``system.localize()`` as the sequence of public calls it is made of."""
    span = rec.spans.span
    controller = system.controller
    with span("controller.build_index"):
        index = controller.build_index()
    with span("controller.compile_logical"):
        logical = controller.logical_rules(index=index)
    with span("controller.collect_deployed"):
        deployed = controller.collect_deployed_rules()
    plan = None
    if workers is None:
        with span("verify.check"):
            equivalence = system.checker.check_network(logical, deployed)
    else:
        switches = [
            (uid, logical.get(uid, ()), deployed.get(uid, ()))
            for uid in sorted(set(logical) | set(deployed))
        ]
        pool = system.worker_pool(workers) if len(switches) >= SMALL_FABRIC_SWITCHES else None
        with span("parallel.check_many"):
            equivalence = system.checker.check_many(
                switches, executor=pool, max_workers=workers
            )
        plan = plan_for_report(
            equivalence, clamp_workers(workers, total_items=len(equivalence.results))
        )
    missing = equivalence.missing_rules()
    with span("risk.build_model"):
        model = build_controller_risk_model(
            controller.policy, index=index, include_switch_risks=system.include_switch_risks
        )
    with span("risk.augment"):
        if plan is None:
            augment_controller_model(
                model, missing, include_switch_risks=system.include_switch_risks
            )
        else:
            augment_controller_model_sharded(
                model, missing, plan, include_switch_risks=system.include_switch_risks
            )
    with span("core.scout_localize"):
        hypothesis = system.localizer.localize(model)
    correlation = None
    if hypothesis.objects():
        with span("core.correlate"):
            correlation = system.correlation_engine.correlate(
                hypothesis,
                controller.change_log,
                controller.all_fault_records(),
                relevant_devices=_relevant_devices(controller, hypothesis, missing),
            )
    return ScoutReport(
        scope="controller",
        equivalence=equivalence,
        hypothesis=hypothesis,
        risk_models={"controller": model},
        correlation=correlation,
    )


def _audit_differences(decomposed: ScoutReport, opaque: ScoutReport) -> List[str]:
    """Where the decomposed audit departs from ``localize()`` on the same state."""
    problems = []
    if decomposed.hypothesis.objects() != opaque.hypothesis.objects():
        problems.append("decomposed audit's hypothesis differs from localize()")
    if (
        decomposed.equivalence.semantic_fingerprint()
        != opaque.equivalence.semantic_fingerprint()
    ):
        problems.append("decomposed audit's fingerprint differs from localize()")
    causes = [
        report.correlation.root_causes() if report.correlation else {}
        for report in (decomposed, opaque)
    ]
    if causes[0] != causes[1]:
        problems.append("decomposed audit's root causes differ from localize()")
    return problems


def run_audit(
    rec: Recorder,
    seed: int,
    profile: WorkloadProfile,
    faults: int,
    fault_leaves: Optional[int],
    setups: int,
    warmups: int,
    parallel: bool,
) -> None:
    workers = min(NPROC, 4) if parallel else None
    kwargs = {"parallel": True, "max_workers": workers} if parallel else {}

    def build() -> Tuple[ScoutSystem, Dict]:
        controller = _deploy(rec, profile)
        snapshot = snapshot_tcam(controller.fabric)
        system = ScoutSystem(controller)
        if parallel:
            # The cold round: spawns the pool and fills the worker memo.
            with rec.spans.span("parallel.pool_warmup"):
                system.localize(**kwargs)
        return system, snapshot

    system, snapshot = _set_up(rec, setups, build, close=lambda built: built[0].close())
    try:
        _audit_loop(rec, seed, system, snapshot, faults, fault_leaves, warmups, workers, kwargs)
    finally:
        system.close()


def _audit_loop(
    rec: Recorder,
    seed: int,
    system: ScoutSystem,
    snapshot: Dict,
    faults: int,
    fault_leaves: Optional[int],
    warmups: int,
    workers: Optional[int],
    kwargs: Dict,
) -> None:
    controller = system.controller
    fabric = controller.fabric
    rules = sum(len(entries) for entries in snapshot.values())
    leaves = sorted(fabric.leaf_uids())
    draws = random.Random(seed)

    def break_fabric() -> List[InjectedFault]:
        restore_tcam(fabric, snapshot)
        controller.clock.tick(CHANGE_WINDOW + 1)
        with rec.spans.span("faults.inject"):
            return FaultInjector(controller).inject_random_faults(
                faults,
                switches=draws.sample(leaves, fault_leaves) if fault_leaves else None,
                seed=draws.getrandbits(32),
            )

    for _ in range(warmups):
        break_fabric()
        system.localize(**kwargs)

    tally: Dict[str, List[float]] = defaultdict(list)
    engines: Counter = Counter()
    checked_rules = 0
    pool = system.worker_pool(workers) if workers is not None else None
    at_start = pool.stats() if pool else {}
    compared = False
    rec.start()
    while rec.time_left():
        injected = break_fabric()
        gc.collect()
        before = pool.stats() if pool else {}
        with rec.timed("audit", units=rules) as sample:
            if sample.traced:
                report = _decomposed_audit(rec, system, workers)
            else:
                report = system.localize(**kwargs)
        problems = audit_problems(report, injected)
        if sample.traced and not compared:
            problems += _audit_differences(report, system.localize(**kwargs))
            compared = True
        rec.verify(problems)

        truth = {fault.object_uid for fault in injected}
        blamed = report.faulty_objects()
        model = report.risk_models["controller"]
        tally["core.recall"].append(len(blamed & truth) / len(truth))
        tally["core.precision"].append(len(blamed & truth) / len(blamed) if blamed else 0.0)
        tally["core.hypothesis_size"].append(len(blamed))
        tally["core.suspect_reduction"].append(report.suspect_reduction())
        tally["risk.elements"].append(len(model.elements()))
        tally["risk.risks"].append(len(model.risks()))
        for result in report.equivalence.results.values():
            engines[result.engine] += 1
            checked_rules += result.logical_count + result.deployed_count
        if pool:
            tally["parallel.cache_misses"].append(
                pool.stats()["cache_misses"] - before["cache_misses"]
            )

    audits = len(rec.samples)
    rec.layer.update({name: statistics.fmean(values) for name, values in tally.items()})
    for engine in ("bdd", "ap", "hash"):
        rec.layer[f"verify.switches_{engine}"] = engines[engine] / audits
    check_seconds = rec.spans.self_times().get("verify.check")
    if check_seconds:
        rec.layer["verify.rules_per_s"] = (
            checked_rules / audits / statistics.fmean(check_seconds)
        )
    if pool:
        now = pool.stats()
        misses = now["cache_misses"] - at_start["cache_misses"]
        lookups = misses + now["cache_hits"] - at_start["cache_hits"]
        rec.layer["parallel.cache_hit_rate"] = 1.0 - misses / lookups if lookups else 0.0
        rec.layer["parallel.respawns"] = float(now["respawns"] - at_start["respawns"])
        if rec.trace:
            # The pickle/IPC split of one sweep, from the program's existing
            # stage breakdown of a ``trace=`` round (no new spans).
            collector = TraceCollector()
            started = time.perf_counter()
            system.check(parallel=True, max_workers=workers, trace=collector)
            wall = time.perf_counter() - started
            stages = parallel_stage_breakdown(collector.spans(), wall, workers)["stages"]
            rec.layer["parallel.pickle_s"] = stages["pickle"]
            rec.layer["parallel.ipc_s"] = stages["worker_spawn_and_ipc"]
            rec.layer["parallel.unpickle_s"] = stages["worker_unpickle"]


# ---------------------------------------------------------------------- #
# Churn
# ---------------------------------------------------------------------- #
def run_churn(rec: Recorder, seed: int, workload: str, setups: int) -> None:
    events = max(50, int(CHURN_EVENTS_PER_SECOND * rec.budget))
    profile = churn_profile_for(workload, events=events, seed=seed)

    def build() -> ChurnDriver:
        controller = _deploy(rec, resolve_profile(workload))
        # Constructing the driver attaches its monitor, whose start() is the
        # bootstrap sweep.
        with rec.spans.span("online.bootstrap"):
            return ChurnDriver(controller, profile)

    driver = _set_up(rec, setups, build, _close_driver)
    try:
        _churn_loop(rec, driver)
    finally:
        _close_driver(driver)


def _close_driver(driver: ChurnDriver) -> None:
    driver.close()
    driver.monitor.close()


def _checkpoint(rec: Recorder, driver: ChurnDriver, seq: int) -> None:
    """The differential oracle, strict: untimed, but a checked step."""
    problems = []
    with rec.spans.span("churn.checkpoint"):
        try:
            driver.checkpoint(seq)
        except ChurnDivergenceError as error:
            problems.append(str(error))
    rec.verify(problems, standalone=True)


def _churn_loop(rec: Recorder, driver: ChurnDriver) -> None:
    with rec.spans.span("churn.stream_generate"):
        stream = generate_churn_stream(driver.profile)
    rec.mix = dict(zip(CHURN_EVENT_KINDS, driver.profile.mix.weights()))
    monitor = driver.monitor
    before = monitor.stats()
    first_pass = len(monitor.passes)
    bus_before = monitor.bus.total_events()
    applies: Dict[str, List[float]] = {kind: [] for kind in CHURN_EVENT_KINDS}
    polls: List[float] = []
    detections: List[float] = []
    seq = 0
    rec.start()
    for event in stream:
        if not rec.time_left():
            break
        seq = event.seq
        if isinstance(event, Checkpoint):
            _checkpoint(rec, driver, seq)
            continue
        with rec.timed(event.kind) as sample:
            with rec.clocked("controller.apply", applies[event.kind]):
                record = driver.apply(event)
            driver.clock.tick()
            with rec.clocked("online.poll", polls):
                outcome = monitor.poll()
        if "skipped" in record:
            # Nothing to act on (say, a remove with no churn rule left): not
            # a sample of its kind's cost.
            sample.kind = "skipped"
            applies[event.kind].pop()
        elif event.kind == "fault" and outcome is not None and outcome.opened:
            detections.append(sample.seconds)
    bus_events = monitor.bus.total_events() - bus_before
    _checkpoint(rec, driver, seq + 1)
    _monitor_counters(rec, monitor, before, first_pass, bus_events, polls)
    for kind, seconds in applies.items():
        if seconds:
            rec.layer[f"controller.apply_ms.{kind}"] = 1000.0 * statistics.median(seconds)
    if detections:
        rec.layer["online.detect_ms"] = 1000.0 * statistics.median(detections)
    _snapshot_roundtrip(rec, driver)


def _snapshot_roundtrip(rec: Recorder, driver: ChurnDriver) -> None:
    """Snapshot the churned monitor and restore it: the state must survive."""
    monitor = driver.monitor
    with rec.spans.span("online.snapshot"):
        document = monitor.snapshot()
    rec.layer["online.snapshot_bytes"] = float(len(json.dumps(document)))
    fingerprint = monitor.report().semantic_fingerprint()
    incidents = sorted(incident.switch_uid for incident in monitor.store.active())
    monitor.close()
    with rec.spans.span("online.restore"):
        restored = NetworkMonitor.from_snapshot(driver.controller, document)
    problems = []
    if restored.report().semantic_fingerprint() != fingerprint:
        problems.append("restored monitor's fingerprint differs from the snapshot's")
    if sorted(i.switch_uid for i in restored.store.active()) != incidents:
        problems.append("restored monitor's active incidents differ")
    restored.close()
    rec.verify(problems, standalone=True)


# ---------------------------------------------------------------------- #
# Storms
# ---------------------------------------------------------------------- #
def _storm_cycle(
    rec: Recorder,
    controller: Controller,
    monitor: NetworkMonitor,
    draws: random.Random,
    polls: List[float],
) -> Tuple[Optional[MonitorPass], set]:
    """Every leaf loses a random half of its TCAM, then is resynchronised.

    Returns the loss poll's pass and the leaves that lost at least one rule.
    """
    leaves = sorted(controller.fabric.leaf_uids())
    draws.shuffle(leaves)
    hit = set()
    with rec.spans.span("fabric.wipe"):
        for uid in leaves:
            if controller.fabric.switch(uid).tcam.remove_where(
                lambda rule: draws.random() < STORM_LOSS
            ):
                hit.add(uid)
    controller.clock.tick(2)
    with rec.clocked("online.poll", polls):
        lost = monitor.poll(force=True)
    with rec.spans.span("fabric.sync_tcam"):
        for uid in leaves:
            controller.fabric.switch(uid).sync_tcam()
    controller.clock.tick(2)
    # Digests answer the resync poll; only loss polls feed the percentiles.
    with rec.spans.span("online.poll"):
        monitor.poll(force=True)
    return lost, hit


def run_storm(rec: Recorder, seed: int, profile: WorkloadProfile, setups: int) -> None:
    draws = random.Random(seed)

    def build() -> NetworkMonitor:
        controller = _deploy(rec, profile)
        monitor = NetworkMonitor(controller)
        with rec.spans.span("online.bootstrap"):
            monitor.start()
        # One cycle fills the atom table; its inner spans would skew the
        # timed cycles' per-layer figures.
        with rec.spans.span("online.warmup_cycle"):
            _storm_cycle(Recorder(0.0, trace=False), controller, monitor, draws, [])
        return monitor

    monitor = _set_up(rec, setups, build, NetworkMonitor.close)
    controller = monitor.controller
    try:
        _storm_loop(rec, controller, monitor, draws)
    finally:
        monitor.close()
    if rec.trace:
        _partitioned_leg(rec, controller, draws)


def _storm_problems(monitor: NetworkMonitor, lost: Optional[MonitorPass], hit: set) -> List[str]:
    """What one storm cycle's polls got wrong."""
    problems = []
    if lost is None or set(lost.switches_rechecked) != hit:
        problems.append("the loss poll did not recheck exactly the leaves hit")
    elif {incident.switch_uid for incident in lost.opened} != hit:
        problems.append("the loss poll did not open one incident per leaf hit")
    if monitor.store.active():
        problems.append("incidents still active after the resync")
    return problems


def _final_problems(controller: Controller, monitor: NetworkMonitor) -> List[str]:
    fresh = ScoutSystem(controller).check().semantic_fingerprint()
    if monitor.report().semantic_fingerprint() != fresh:
        return ["monitor's final fingerprint differs from a fresh check"]
    return []


def _storm_loop(
    rec: Recorder, controller: Controller, monitor: NetworkMonitor, draws: random.Random
) -> None:
    before = monitor.stats()
    first_pass = len(monitor.passes)
    bus_start = monitor.bus.total_events()
    polls: List[float] = []
    rec.start()
    while rec.time_left():
        bus_before = monitor.bus.total_events()
        with rec.timed("cycle") as sample:
            lost, hit = _storm_cycle(rec, controller, monitor, draws, polls)
        sample.units = monitor.bus.total_events() - bus_before
        rec.verify(_storm_problems(monitor, lost, hit))
    bus_events = monitor.bus.total_events() - bus_start
    _monitor_counters(rec, monitor, before, first_pass, bus_events, polls)
    rec.verify(_final_problems(controller, monitor), standalone=True)


def _partitioned_leg(rec: Recorder, controller: Controller, draws: random.Random) -> None:
    """The same storm on two partitions with two workers, traced runs only.

    The default monitor never enters the partition fan-out, the per-partition
    pools or the merge; these few cycles put a number on that path, in the
    same unit, beside the default monitor's.  Two and two on any machine.
    """
    unrecorded = Recorder(0.0, trace=False)
    monitor = NetworkMonitor(controller, partitions=2, max_workers=2)
    try:
        monitor.start()
        _storm_cycle(unrecorded, controller, monitor, draws, [])
        cycles, events = [], 0
        for _ in range(PARTITIONED_CYCLES):
            bus_before = monitor.bus.total_events()
            started = time.perf_counter()
            lost, hit = _storm_cycle(unrecorded, controller, monitor, draws, [])
            cycles.append(time.perf_counter() - started)
            events += monitor.bus.total_events() - bus_before
            rec.verify(_storm_problems(monitor, lost, hit), standalone=True)
        rec.layer["online.cycle_ms_p2"] = 1000.0 * statistics.median(cycles)
        rec.layer["online.bus_events_per_s_p2"] = events / sum(cycles)
        rec.verify(_final_problems(controller, monitor), standalone=True)
    finally:
        monitor.close()


# ---------------------------------------------------------------------- #
# The table
# ---------------------------------------------------------------------- #
def _production_third() -> WorkloadProfile:
    """The paper's production cluster at a third of its size.

    A third of the leaves and a third of the EPG pairs keep the full
    cluster's ~12k rules per leaf (so the same engine is chosen) while one
    audit takes under a second instead of 3.5, which is what lets a run of a
    few seconds hold enough audits for a steady median.
    """
    return dataclasses.replace(
        production_cluster_profile(),
        name="production-third",
        num_leaves=10,
        target_pairs=6000,
    )


def _workload(run: Callable, smoke: Dict, **full) -> Callable[[Recorder, int, bool], None]:
    def start(rec: Recorder, seed: int, is_smoke: bool) -> None:
        run(rec, seed, **{**full, **smoke} if is_smoke else full)

    return start


#: name -> ``start(recorder, seed, smoke)``.  The smoke sizes exist for the
#: self-tests: same code paths on a fabric that sets up in milliseconds.
WORKLOADS: Dict[str, Callable[[Recorder, int, bool], None]] = {
    "audit-production": _workload(
        run_audit,
        smoke={"profile": testbed_profile(), "faults": 2, "setups": 1},
        profile=_production_third(),
        faults=4,
        fault_leaves=None,
        setups=3,
        warmups=1,
        parallel=False,
    ),
    "audit-dc512": _workload(
        run_audit,
        smoke={},
        profile=datacenter_profile(),
        # One fault per audit, confined to four random leaves.  Fabric-wide,
        # one popular EPG or a VRF dirties up to 140 leaves, each a memo miss
        # and a BDD build, and audits range over 0.8-5 s by the draw alone.
        faults=1,
        fault_leaves=4,
        setups=1,
        # The pool's sticky routing follows the shard plan, which shifts with
        # the faulted leaves' rule counts: each worker must have seen most
        # leaves before the memo hit rate settles.
        warmups=4,
        parallel=True,
    ),
    "churn-simulation": _workload(
        run_churn, smoke={"workload": "small", "setups": 1}, workload="simulation", setups=3
    ),
    "storm-simulation": _workload(
        run_storm,
        smoke={"profile": small_profile(), "setups": 1},
        profile=resolve_profile("simulation"),
        setups=3,
    ),
}
