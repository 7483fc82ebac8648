"""What one run of one workload measured, and the arithmetic on it.

A workload function receives a :class:`Recorder`, sets up inside
``rec.setup()`` (timed as ``setup_s``), then performs operations inside
``rec.timed(...)`` until the recorder's time budget is spent.  In a traced run
the first part of the budget runs the same opaque operations as an untraced
run and the rest runs them *decomposed* under benchmark-owned spans; the two
medians give ``trace.overhead_ratio``.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from spans import ROOT, SpanLog

__all__ = ["Recorder", "Sample", "high_percentile", "speed_kernel"]

#: Share of a traced run's budget spent on opaque operations before the
#: decomposed ones start.
UNTRACED_SHARE = 0.4
#: Rules the speed kernel pushes through a list, a dict, a sort and sets.
KERNEL_RULES = 30_000
#: The kernel runs before an operation when the last run is this old.
KERNEL_INTERVAL = 0.25
#: The kernel's time on the box the baseline was recorded on, at that box's
#: fastest.  It only fixes the scale: a host this fast reports wall time.
KERNEL_REFERENCE_SECONDS = 0.012


def speed_kernel() -> float:
    """Seconds a fixed piece of interpreter-bound work took just now.

    The sandbox's hosts speed up and slow down by tens of percent for tens of
    seconds at a time; this kernel, run between operations, tracks that (see
    README.md, "Host speed").  It touches nothing of the program, and the
    collector is off around it so the program's heap size cannot reach it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        rules = [(i % 7, i % 13, i * 40503 % 1000, i % 3) for i in range(KERNEL_RULES)]
        table: Dict[tuple, list] = {}
        for rule in rules:
            table.setdefault(rule[:2], []).append(rule)
        sum(len({rule[2:] for rule in table[key]}) for key in sorted(table))
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def high_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with too few samples for any percentile
    above the median to qualify, that is the median itself.
    """
    ordered = sorted(values)
    index = len(ordered) - 11
    if index <= len(ordered) // 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / len(ordered)


@dataclasses.dataclass
class Sample:
    """One timed operation."""

    kind: str
    units: float
    traced: bool
    seconds: float = 0.0


class Recorder:
    """Collects what one run of one workload measured."""

    def __init__(self, seconds: float, trace: bool) -> None:
        self.budget = seconds
        self.trace = trace
        self.spans = SpanLog(enabled=trace)
        self.setup_seconds: List[float] = []
        self.samples: List[Sample] = []
        #: Relative weight of each operation kind in the workload's nominal
        #: mix; kinds without a weight (skipped churn events) are not scored.
        self.mix: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Per-layer values that are not span times (counters, ratios).
        self.layer: Dict[str, float] = {}
        #: Speed-kernel times taken around set-ups and between operations.
        self.kernel_setup: List[float] = []
        self.kernel_ops: List[float] = []
        self._kernel_at = 0.0
        self._started = 0.0

    # -- set-up ----------------------------------------------------------- #
    @contextmanager
    def setup(self) -> Iterator[None]:
        self.kernel_setup.extend(speed_kernel() for _ in range(4))
        started = time.perf_counter()
        yield
        self.setup_seconds.append(time.perf_counter() - started)
        self.kernel_setup.extend(speed_kernel() for _ in range(4))

    # -- the measuring phase ---------------------------------------------- #
    def start(self) -> None:
        self._started = time.perf_counter()

    def _elapsed(self) -> float:
        return time.perf_counter() - self._started

    def tracing(self) -> bool:
        """Whether the next operation runs decomposed under spans."""
        if not self.trace or not self.samples:
            return False
        return self._elapsed() >= UNTRACED_SHARE * self.budget

    def time_left(self) -> bool:
        """Whether to start another operation (every phase gets at least one)."""
        if not self.samples or (self.trace and not self.samples[-1].traced):
            return True
        return self._elapsed() < self.budget

    @contextmanager
    def timed(self, kind: str, units: float = 1.0) -> Iterator[Sample]:
        """Time one operation; a traced one is the root of its layer spans."""
        sample = Sample(kind=kind, units=units, traced=self.tracing())
        if time.perf_counter() - self._kernel_at >= KERNEL_INTERVAL:
            self.kernel_ops.append(speed_kernel())
            self._kernel_at = time.perf_counter()
        self.spans.enabled = sample.traced
        started = time.perf_counter()
        try:
            with self.spans.span(ROOT, op=len(self.samples)):
                yield sample
        finally:
            sample.seconds = time.perf_counter() - started
            self.spans.enabled = self.trace
        self.samples.append(sample)
        self.attempted += 1

    @contextmanager
    def clocked(self, name: str, into: List[float]) -> Iterator[None]:
        """A layer span whose duration is also wanted as a plain number."""
        started = time.perf_counter()
        with self.spans.span(name):
            yield
        into.append(time.perf_counter() - started)

    def verify(self, problems: Sequence[str], standalone: bool = False) -> None:
        """Record an oracle's verdict on the last operation.

        ``standalone`` marks a checked step that is not a timed operation (a
        churn checkpoint, a final fingerprint comparison): it is attempted
        work in its own right.
        """
        if standalone:
            self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    # -- results ---------------------------------------------------------- #
    def slowdown(self, setup: bool) -> float:
        """How much slower than the reference the host ran during a phase."""
        samples = self.kernel_setup if setup else self.kernel_ops
        return statistics.median(samples) / KERNEL_REFERENCE_SECONDS

    def _by_kind(self, traced: bool) -> Dict[str, List[Sample]]:
        kinds: Dict[str, List[Sample]] = {}
        for sample in self.samples:
            if sample.traced == traced and (not self.mix or sample.kind in self.mix):
                kinds.setdefault(sample.kind, []).append(sample)
        return kinds

    def _weighted(self, traced: bool, stat: Callable[[List[Sample]], float]) -> float:
        """``stat`` per operation kind, combined by the nominal mix.

        Stratifying by kind takes the luck of the draw out of a random event
        mix: a run that happened to see more of an expensive kind scores the
        same as one that saw fewer.  A single-kind workload reduces to
        ``stat`` over all its samples.
        """
        kinds = self._by_kind(traced)
        total = sum(self.mix.get(kind, 1.0) for kind in kinds)
        return sum(
            self.mix.get(kind, 1.0) / total * stat(samples)
            for kind, samples in kinds.items()
        )

    def op_seconds(self, traced: bool = False) -> float:
        """Typical latency of one operation: per-kind medians, mix-weighted."""
        return self._weighted(
            traced, lambda samples: statistics.median(s.seconds for s in samples)
        )

    def work_per_second(self, traced: bool = False) -> float:
        """Sustained rate: mix-weighted mean units over mix-weighted mean time.

        Means, so unlike :meth:`op_seconds` it feels the slow tail (the one
        audit in a dozen that pays a worker-memo miss storm).
        """
        units = self._weighted(traced, lambda ss: statistics.fmean(s.units for s in ss))
        seconds = self._weighted(
            traced, lambda ss: statistics.fmean(s.seconds for s in ss)
        )
        return units / seconds

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_seconds),
            "op_ms": 1000.0 * self.op_seconds(),
        }

    def per_layer(self) -> Dict[str, float]:
        """Every layer span's self time, plus the counters.

        A layer entered inside operations is reported in seconds per traced
        operation, so those layers add up to the operation; one entered
        outside them (set-up, fault injection, checkpoints) per call.
        """
        traced = [s.seconds for s in self.samples if s.traced]
        in_ops = self.spans.op_layers()
        values = {
            f"{name}_s": sum(seconds) / (len(traced) if name in in_ops else len(seconds))
            for name, seconds in self.spans.self_times().items()
            if name != ROOT
        }
        values.update(self.layer)
        tail, percentile = high_percentile(traced)
        values.update(
            {
                "bench.traced_ops": float(len(traced)),
                "bench.work_per_s": self.work_per_second(traced=True),
                "bench.op_ms_hi": 1000.0 * tail,
                "bench.op_hi_percentile": percentile,
                "bench.slowdown": self.slowdown(setup=False),
                "bench.setup_slowdown": self.slowdown(setup=True),
                "trace.coverage": self.spans.coverage(),
                "trace.overhead_ratio": self.op_seconds(traced=True) / self.op_seconds(),
            }
        )
        return values
