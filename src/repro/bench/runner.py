"""Run benchmarks and suites; the result model the JSON schema mirrors.

``run_suite`` is what ``repro bench run`` calls; :func:`measure` is the
audited timing entry point for ad-hoc benchmark scripts (the
``benchmarks/bench_*.py`` pytest files) that need the raw value of the
function they time as well as the harness statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro.bench.clock import Clock, perf_clock
from repro.bench.registry import Benchmark, get_benchmark, suite_benchmarks
from repro.bench.stats import RepeatPolicy, Stats, collect
from repro.parallel import Shard, ShardOutcome, merged_values, run_shards

T = TypeVar("T")

#: default policy used when neither benchmark nor caller overrides it
DEFAULT_POLICY = RepeatPolicy()


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's outcome: timing summary plus derived rates."""

    name: str
    ops: int
    stats: Stats
    #: raw per-call counter readings the benchmark reported
    counters: Mapping[str, float]

    @property
    def ops_per_s(self) -> float:
        """Work units per second at the median sample."""
        if self.stats.median_s <= 0.0:
            return 0.0
        return self.ops / self.stats.median_s

    @property
    def counter_rates(self) -> Dict[str, float]:
        """Counter-derived rates (e.g. simulated misses/sec) at the
        median sample."""
        median = self.stats.median_s
        if median <= 0.0:
            return {k: 0.0 for k in self.counters}
        return {k: v / median for k, v in self.counters.items()}


@dataclass(frozen=True)
class SuiteResult:
    """All results of one suite run."""

    suite: str
    results: Tuple[BenchResult, ...]

    def by_name(self) -> Dict[str, BenchResult]:
        """name -> result map (names are unique per suite)."""
        return {r.name: r for r in self.results}


def run_benchmark(
    bench: Benchmark,
    clock: Clock = perf_clock,
    policy: Optional[RepeatPolicy] = None,
) -> BenchResult:
    """Set up and sample one registered benchmark."""
    fn = bench.factory()
    effective = policy or bench.policy or DEFAULT_POLICY
    stats, counters = collect(fn, clock, effective)
    return BenchResult(
        name=bench.name, ops=bench.ops, stats=stats, counters=counters
    )


def _bench_shard(
    name: str, policy: Optional[RepeatPolicy]
) -> BenchResult:
    """Worker entry point: one registered benchmark, audited clock.

    Each shard times through :data:`~repro.bench.clock.perf_clock` in
    its own process, so wall-clock numbers are comparable only within a
    shard -- which is all the harness ever does (medians and spreads
    are per-benchmark, never cross-benchmark).
    """
    return run_benchmark(get_benchmark(name), policy=policy)


def run_suite(
    suite: str,
    clock: Clock = perf_clock,
    policy: Optional[RepeatPolicy] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> SuiteResult:
    """Run every benchmark of ``suite``; KeyError when the suite is
    empty/unknown.

    With ``jobs > 1`` benchmarks run on a :mod:`repro.parallel` process
    pool, one shard per benchmark, merged back into registry order.
    Benchmarks never use the result cache -- a cached timing would
    report the machine state of a past run.  Parallel workers
    always time through the audited ``perf_clock``, so a custom
    ``clock`` (the tests' fake clocks) forces the serial path; note
    that co-scheduled benchmarks can contend for cores, so gating
    comparisons should keep using serial runs on loaded machines.
    """
    benches = suite_benchmarks(suite)
    if not benches:
        raise KeyError(f"unknown or empty suite {suite!r}")
    if jobs > 1 and clock is perf_clock:
        shards = [
            Shard(
                index=i,
                key=f"bench/{bench.name}",
                fn="repro.bench.runner:_bench_shard",
                params={"name": bench.name, "policy": policy},
            )
            for i, bench in enumerate(benches)
        ]

        def _progress(outcome: ShardOutcome, done: int, total: int) -> None:
            if progress is not None:
                progress(outcome.shard.key.split("/", 1)[1])

        outcomes = run_shards(shards, jobs=jobs, progress=_progress)
        return SuiteResult(suite=suite, results=tuple(merged_values(outcomes)))
    results = []
    for bench in benches:
        if progress is not None:
            progress(bench.name)
        results.append(run_benchmark(bench, clock=clock, policy=policy))
    return SuiteResult(suite=suite, results=tuple(results))


def measure(
    name: str,
    fn: Callable[[], T],
    ops: int = 1,
    counters: Optional[Callable[[T], Mapping[str, float]]] = None,
    clock: Clock = perf_clock,
    policy: Optional[RepeatPolicy] = None,
) -> Tuple[T, BenchResult]:
    """Time an ad-hoc callable through the audited harness path.

    Returns ``(last value fn returned, BenchResult)``.  ``counters``
    optionally maps that value to counter readings to attach.  This is
    what the ``benchmarks/`` pytest scripts use so their timing and JSON
    output go through the same plumbing as registered suites.
    """
    holder: Dict[str, Any] = {}

    def timed() -> Optional[Mapping[str, float]]:
        value = fn()
        holder["value"] = value
        return counters(value) if counters is not None else None

    stats, reported = collect(timed, clock, policy or DEFAULT_POLICY)
    value: T = holder["value"]
    return value, BenchResult(
        name=name, ops=ops, stats=stats, counters=reported
    )


def format_suite(result: SuiteResult) -> str:
    """Human-readable table of one suite run (the CLI's stdout)."""
    header = (
        f"{'benchmark':<28} {'median':>10} {'p10':>10} {'p90':>10} "
        f"{'reps':>5} {'ops/s':>12}  counters/s"
    )
    lines = [f"suite: {result.suite}", header, "-" * len(header)]
    for r in result.results:
        rates = ", ".join(
            f"{k}={v:,.0f}" for k, v in sorted(r.counter_rates.items())
        )
        lines.append(
            f"{r.name:<28} {_fmt_s(r.stats.median_s):>10} "
            f"{_fmt_s(r.stats.p10_s):>10} {_fmt_s(r.stats.p90_s):>10} "
            f"{r.stats.repeats:>5} {r.ops_per_s:>12,.0f}  {rates}"
        )
    return "\n".join(lines)


def _fmt_s(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"
