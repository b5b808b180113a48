"""The registered benchmark suites.

Three standing suites:

- ``smoke`` -- the CI perf gate: every hot path plus a closed-form model
  evaluation, tuned to finish well under a minute on a shared runner;
- ``hotpaths`` -- the optimisation-tracking set covering the three paths
  every experiment sits on: the per-reference cache loop
  (``machine/cache.py`` / ``machine/vm.py`` / ``machine/smp.py``), the
  scheduler priority-update path (``sched/heap.py`` /
  ``sched/locality.py``), and the runtime stepping loop
  (``threads/runtime.py`` driven by ``sim/driver.py``);
- ``engine`` -- the event-driven engine (``sim/events.py``) on the
  sparse ``server`` workload it exists for, with the stepped engine's
  run of the same fixture as the reference; the engine-to-engine
  speedup itself is gated by ``benchmarks/bench_engine_event.py``.

Benchmarks report *simulated* counters (refs, misses, events, context
switches) so the JSON carries counter-derived rates -- e.g. simulated
misses per wall second, the figure of merit for a cache simulator -- not
just wall time.

Everything here is deterministic: address streams are precomputed with
seeded generators in the factory (untimed), and the timed callables run
pure simulation.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.bench.registry import register
from repro.bench.stats import BenchFn, RepeatPolicy

# Geometry for the standalone cache benchmarks: the paper's 512 KB
# E-cache with 64-byte lines (8192 lines), batches of 256 lines.
_CACHE_BYTES = 512 * 1024
_LINE_BYTES = 64
_NUM_LINES = _CACHE_BYTES // _LINE_BYTES
_BATCH = 256


def _sweep_batches(num_batches: int, stride: int) -> List[np.ndarray]:
    """Distinct-index batches sliding through 1.5x the cache."""
    span = _NUM_LINES + _NUM_LINES // 2
    return [
        (np.arange(_BATCH, dtype=np.int64) + i * stride) % span
        for i in range(num_batches)
    ]


@register(
    "cache_direct_sweep", suites=("smoke", "hotpaths"), ops=48 * _BATCH
)
def cache_direct_sweep() -> BenchFn:
    """Direct-mapped E-cache: distinct-index batches (one gather,
    compare and scatter each)."""
    from repro.machine.cache import DirectMappedCache

    cache = DirectMappedCache(_CACHE_BYTES, _LINE_BYTES)
    batches = _sweep_batches(48, stride=199)
    stats = cache.stats

    def run() -> Mapping[str, float]:
        refs0, miss0 = stats.refs, stats.misses
        for batch in batches:
            cache.access(batch)
        return {
            "refs": float(stats.refs - refs0),
            "sim_misses": float(stats.misses - miss0),
        }

    return run


@register(
    "cache_direct_collide", suites=("smoke", "hotpaths"), ops=16 * _BATCH
)
def cache_direct_collide() -> BenchFn:
    """Direct-mapped E-cache: batches whose indices collide (each priced
    through one sort by index)."""
    from repro.machine.cache import DirectMappedCache

    cache = DirectMappedCache(_CACHE_BYTES, _LINE_BYTES)
    rng = np.random.default_rng(7)  # fixed stream is the point; repro-lint: ignore
    batches = []
    for _ in range(16):
        base = rng.integers(0, _NUM_LINES, size=_BATCH // 2, dtype=np.int64)
        # the second half aliases the first half's indices with new tags
        batches.append(np.concatenate([base, base + _NUM_LINES]))
    stats = cache.stats

    def run() -> Mapping[str, float]:
        refs0, miss0 = stats.refs, stats.misses
        for batch in batches:
            cache.access(batch)
        return {
            "refs": float(stats.refs - refs0),
            "sim_misses": float(stats.misses - miss0),
        }

    return run


@register(
    "cache_assoc_access", suites=("smoke", "hotpaths"), ops=24 * _BATCH
)
def cache_assoc_access() -> BenchFn:
    """4-way LRU set-associative cache (the model-extension simulator)."""
    from repro.machine.cache import SetAssociativeCache

    cache = SetAssociativeCache(64 * 1024, _LINE_BYTES, ways=4)
    num_lines = cache.num_lines
    rng = np.random.default_rng(11)  # fixed stream is the point; repro-lint: ignore
    batches = [
        rng.integers(0, 2 * num_lines, size=_BATCH, dtype=np.int64)
        for _ in range(24)
    ]
    stats = cache.stats

    def run() -> Mapping[str, float]:
        refs0, miss0 = stats.refs, stats.misses
        for batch in batches:
            cache.access(batch)
        return {
            "refs": float(stats.refs - refs0),
            "sim_misses": float(stats.misses - miss0),
        }

    return run


@register("vm_translate", suites=("hotpaths",), ops=64 * _BATCH)
def vm_translate() -> BenchFn:
    """Virtual-to-physical line translation over multi-page batches."""
    from repro.machine.vm import VirtualMemory

    vm = VirtualMemory(_CACHE_BYTES)
    rng = np.random.default_rng(13)  # fixed stream is the point; repro-lint: ignore
    span_lines = 4 * _NUM_LINES
    single_page = [
        (int(rng.integers(0, span_lines // 32)) * 32)
        + np.arange(_BATCH // 8, dtype=np.int64) % 32
        for _ in range(32)
    ]
    multi_page = [
        rng.integers(0, span_lines, size=_BATCH, dtype=np.int64)
        for _ in range(32)
    ]

    def run() -> Mapping[str, float]:
        faults0 = vm.page_faults
        for batch in single_page:
            vm.translate_lines(batch)
        for batch in multi_page:
            vm.translate_lines(batch)
        return {"page_faults": float(vm.page_faults - faults0)}

    return run


#: one-line batches and heap-path batches per timed call of
#: ``machine_touch_small``: each of the E5000's 8 cpus in turn writes
#: every one of them
_SMALL_LINES = 64
_SMALL_PATHS = 16
_E5000_CPUS = 8


@register(
    "machine_touch_small",
    suites=("smoke", "hotpaths"),
    ops=_E5000_CPUS * (_SMALL_LINES + _SMALL_PATHS),
)
def machine_touch_small() -> BenchFn:
    """Scheduler-sized write touches on the 8-cpu E5000.

    One-line batches (a queue slot, a priority entry) and heap-path
    batches (a root-to-leaf path of a heap array, a few lines) as the
    locality scheduler writes its own tables.  Each cpu in turn writes
    every batch, so its first write of each line misses, finds the
    previous writer holding the line, and invalidates that copy: remote
    pricing and write invalidation through the coherence directory.
    """
    from repro.machine.configs import E5000_8CPU
    from repro.machine.smp import Machine

    machine = Machine(E5000_8CPU, seed=0)
    assert len(machine.cpus) == _E5000_CPUS
    batches = [
        np.asarray([line], dtype=np.int64) for line in range(_SMALL_LINES)
    ]
    for length in range(1, 8 * _SMALL_PATHS, 8):
        # the lines of the path from entry ``length`` up to the root
        path = sorted({_SMALL_LINES + (length >> k) // 2
                       for k in range(length.bit_length())})
        batches.append(np.asarray(path, dtype=np.int64))
    cpus = machine.cpus

    def sweep() -> None:
        for cpu in range(len(cpus)):
            for batch in batches:
                machine.touch(cpu, batch, write=True)

    sweep()  # every line now held by the last cpu: each timed sweep is alike

    def run() -> Mapping[str, float]:
        refs0 = sum(cpu.l2.stats.refs for cpu in cpus)
        miss0 = machine.total_l2_misses()
        inval0 = sum(cpu.l2.stats.invalidations for cpu in cpus)
        sweep()
        return {
            "refs": float(sum(cpu.l2.stats.refs for cpu in cpus) - refs0),
            "sim_misses": float(machine.total_l2_misses() - miss0),
            "invalidations": float(
                sum(cpu.l2.stats.invalidations for cpu in cpus) - inval0
            ),
        }

    return run


@register("heap_churn", suites=("smoke", "hotpaths"), ops=2 * 256)
def heap_churn() -> BenchFn:
    """Priority-heap push/pop churn with lazy-deletion validation.

    Models the per-context-switch heap work: push a population of READY
    threads with deterministic priorities, then pop them all back out
    through the validity filter.
    """
    from repro.sched.heap import PriorityHeap
    from repro.threads.thread import ActiveThread

    def _body():  # pragma: no cover - never advanced
        yield None

    threads = [ActiveThread(tid, _body()) for tid in range(1, 257)]
    priorities = [float((tid * 2654435761) % 4096) for tid in range(1, 257)]
    heap = PriorityHeap()

    def version(_thread: ActiveThread) -> Optional[int]:
        return 0

    def run() -> Mapping[str, float]:
        ops0 = heap.pushes + heap.pops
        for thread, priority in zip(threads, priorities):
            heap.push(thread, priority, 0)
        while True:
            entry, _pops = heap.pop_valid(version)
            if entry is None:
                break
        return {"heap_ops": float(heap.pushes + heap.pops - ops0)}

    return run


@register("sched_priority_update", suites=("smoke", "hotpaths"))
def sched_priority_update() -> BenchFn:
    """End-to-end LFF run dominated by the O(d) priority-update path.

    Runs the smoke-scale tasks workload (dependency-annotated, many
    context switches) under LFF on the SMALL machine; context switches
    per second is the figure of merit for the update path.
    """
    from repro.faults.campaign import campaign_workloads
    from repro.machine.configs import SMALL
    from repro.machine.smp import Machine
    from repro.sched import SCHEDULERS
    from repro.threads.runtime import Runtime

    factory = campaign_workloads("smoke")["tasks"]

    def run() -> Mapping[str, float]:
        machine = Machine(SMALL, seed=0)
        scheduler = SCHEDULERS["lff"]()
        runtime = Runtime(machine, scheduler)
        factory().build(runtime)
        runtime.run()
        heap_ops = sum(h.pushes + h.pops for h in scheduler.heaps)
        return {
            "context_switches": float(runtime.context_switches),
            "events": float(runtime.events_executed),
            "heap_ops": float(heap_ops),
            "sim_misses": float(machine.total_l2_misses()),
        }

    return run


@register("runtime_step_loop", suites=("smoke", "hotpaths"))
def runtime_step_loop() -> BenchFn:
    """The discrete-event stepping loop, tracing off (no observers).

    Builds and runs the smoke-scale random-walk workload under bare FCFS
    on the SMALL machine each call -- the per-event interpreter cost
    every performance experiment pays; simulated events and misses per
    wall second are the counters to watch.
    """
    from repro.faults.campaign import campaign_workloads
    from repro.machine.configs import SMALL
    from repro.machine.smp import Machine
    from repro.sched.fcfs import FCFSScheduler
    from repro.threads.runtime import Runtime

    factory = campaign_workloads("smoke")["randomwalk"]

    def run() -> Mapping[str, float]:
        machine = Machine(SMALL, seed=0)
        runtime = Runtime(machine, FCFSScheduler())
        factory().build(runtime)
        runtime.run()
        return {
            "events": float(runtime.events_executed),
            "sim_misses": float(machine.total_l2_misses()),
            "cycles": float(machine.time()),
        }

    return run


def _sparse_engine_run(engine: str) -> BenchFn:
    """One full ``server`` run on 32 cpus under LFF, either engine.

    The ``bench_engine_event`` fixture: ~96% of simulated cpu-cycles are
    idle, so the stepped loop's cost is dominated by one-tick idle
    iterations while the event engine jumps straight between wakeups.
    Counters are bit-identical across engines (the parity suite proves
    it); ``loop_steps``/``virtual_steps`` show where the win comes from.
    """
    from repro.machine.configs import SMALL
    from repro.machine.smp import Machine
    from repro.sched import SCHEDULERS
    from repro.threads.runtime import Runtime
    from repro.workloads.server import ServerWorkload

    config = SMALL.with_cpus(32)

    def run() -> Mapping[str, float]:
        machine = Machine(config, seed=0)
        runtime = Runtime(machine, SCHEDULERS["lff"](), engine=engine)
        ServerWorkload().build(runtime)
        runtime.run()
        return {
            "events": float(runtime.events_executed),
            "loop_steps": float(runtime.loop_steps),
            "virtual_steps": float(runtime.virtual_steps),
            "timer_wakeups": float(runtime.timer_wakeups),
            "sim_misses": float(machine.total_l2_misses()),
            "cycles": float(machine.time()),
        }

    return run


@register("engine_event_sparse", suites=("engine", "hotpaths"))
def engine_event_sparse() -> BenchFn:
    """Event engine on the sparse server fixture (the fast path)."""
    return _sparse_engine_run("event")


@register(
    "engine_stepped_sparse",
    suites=("engine",),
    policy=RepeatPolicy(
        warmup=0, min_repeats=2, max_repeats=3, time_budget_s=8.0
    ),
)
def engine_stepped_sparse() -> BenchFn:
    """Stepped engine on the same fixture (the reference cost).

    Seconds per call, not milliseconds -- the whole point -- so the
    repeat policy samples it just enough for a stable median.
    """
    return _sparse_engine_run("stepped")


@register("model_eval", suites=("smoke",), ops=64 * 1024)
def model_eval() -> BenchFn:
    """Closed-form footprint model over vectorised miss counts."""
    from repro.core.model import SharedStateModel

    model = SharedStateModel(_NUM_LINES)
    misses = np.arange(1024, dtype=np.int64) * 16

    def run() -> None:
        for _ in range(64):
            model.expected_running(0.0, misses)
            model.expected_independent(2048.0, misses)
            model.expected_dependent(2048.0, 0.5, misses)
        return None

    return run


def _load() -> Dict[str, str]:
    """Imported for side effects by the registry; nothing to export."""
    return {}
