"""Tests for the analytic reuse-distance cache backend.

Unit coverage for :mod:`repro.machine.analytic` plus the degenerate
inputs the closed form must handle exactly: empty touch streams, a
single-line region, intervals shorter than one touch, and the q=0/q=1
sharing reductions where the analytic prediction must match the
simulated oracle bit-for-bit (no conflicts, no capacity pressure -- the
regimes where the model is exact, not approximate).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.machine.analytic import AnalyticCache, ReuseHistogram
from repro.machine.backend import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    CacheBackend,
    resolve_backend,
)
from repro.machine.cache import DirectMappedCache, SetAssociativeCache
from repro.machine.configs import SMALL
from repro.machine.smp import Machine
from repro.sched.fcfs import FCFSScheduler
from repro.sim.tracer import FootprintTracer
from repro.threads.events import Sleep, Touch
from repro.threads.runtime import Runtime


def lines(*vals):
    return np.asarray(vals, dtype=np.int64)


class TestBackendProtocol:
    def test_registry_names(self):
        assert BACKEND_NAMES == ("sim", "analytic")
        assert DEFAULT_BACKEND == "sim"

    def test_resolve_sim(self, small_config):
        backend = resolve_backend("sim")(small_config)
        assert isinstance(backend, DirectMappedCache)
        assert isinstance(backend, CacheBackend)
        assert backend.num_lines == small_config.l2_lines

    def test_resolve_sim_set_associative(self, small_config):
        backend = resolve_backend("sim")(replace(small_config, l2_ways=4))
        assert isinstance(backend, SetAssociativeCache)
        assert isinstance(backend, CacheBackend)
        assert backend.ways == 4

    def test_resolve_analytic(self, small_config):
        backend = resolve_backend("analytic")(small_config)
        assert isinstance(backend, AnalyticCache)
        assert isinstance(backend, CacheBackend)

    def test_stats_exposed_via_l2(self, small_config):
        machine = Machine(small_config, backend="analytic")
        machine.touch(0, lines(0, 1, 2))
        assert machine.cpus[0].l2.stats.refs == 3
        assert machine.cpus[0].l2.num_lines == small_config.l2_lines

    def test_analytic_cache_refuses_listeners(self, small_config):
        # no per-line events to feed a tracer: attaching one fails
        # instead of silently never firing
        machine = Machine(small_config, backend="analytic")
        with pytest.raises(AttributeError):
            FootprintTracer(machine)

    def test_resolve_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("turbo")

    def test_machine_rejects_unknown_backend(self, small_config):
        with pytest.raises(ValueError):
            Machine(small_config, backend="turbo")

    def test_smp_machine_refuses_analytic(self, smp_config):
        """The backend's bounds hold on one cpu; on an SMP its costs
        steer the schedule they price."""
        with pytest.raises(ValueError, match="one cpu only"):
            Machine(smp_config, backend="analytic")
        assert Machine(smp_config, backend="sim").directory is not None


class TestAnalyticCache:
    def test_compulsory_misses_then_hits(self):
        cache = AnalyticCache(256)
        first = cache.access(lines(0, 1, 2, 3))
        assert (first.refs, first.hits, first.misses) == (4, 0, 4)
        again = cache.access(lines(0, 1, 2, 3))
        assert (again.refs, again.hits, again.misses) == (4, 4, 0)

    def test_empty_batch_is_a_no_op(self):
        cache = AnalyticCache(256)
        result = cache.access(lines())
        assert (result.refs, result.hits, result.misses) == (0, 0, 0)
        assert cache.clock == 0.0
        assert cache.stats.refs == 0

    def test_single_line_region(self):
        cache = AnalyticCache(256)
        assert cache.access(lines(7)).misses == 1
        for _ in range(10):
            assert cache.access(lines(7)).misses == 0
        assert cache.stats.misses == 1
        assert cache.stats.hits == 10

    def test_duplicate_lines_within_batch_hit(self):
        # duplicates re-touch a just-touched line: distance 0, never a miss
        cache = AnalyticCache(256)
        result = cache.access(lines(5, 5, 5, 5))
        assert result.misses == 1
        assert result.hits == 3

    def test_misses_never_exceed_refs(self):
        cache = AnalyticCache(4)
        for start in range(0, 400, 7):
            batch = np.arange(start, start + 5, dtype=np.int64)
            result = cache.access(batch)
            assert 0 <= result.misses <= result.refs
            assert result.hits + result.misses == result.refs

    def test_integer_stream_tracks_clock_within_one(self):
        cache = AnalyticCache(64)
        rng = np.random.default_rng(3)
        for _ in range(200):
            batch = np.unique(rng.integers(0, 512, size=16))
            cache.access(batch.astype(np.int64))
            assert abs(cache.stats.misses - cache.clock) < 1.0

    def test_survival_decays_with_distance(self):
        cache = AnalyticCache(8)
        cache.access(lines(0))
        early = cache.expected_resident(lines(0))
        # 100 distinct new lines push ~100 expected misses of distance
        cache.access(np.arange(1, 101, dtype=np.int64))
        late = cache.expected_resident(lines(0))
        assert late < early
        assert late < 0.001  # k=7/8, d~100: essentially evicted

    def test_one_line_cache_degenerates(self):
        cache = AnalyticCache(1)
        assert cache.access(lines(0)).misses == 1
        assert cache.access(lines(0)).misses == 0  # distance 0 survives
        assert cache.access(lines(1)).misses == 1  # evicts the only line
        assert cache.access(lines(0)).misses == 1  # and 0 is gone

    def test_invalidate_makes_lines_compulsory_again(self):
        cache = AnalyticCache(256)
        cache.access(lines(0, 1, 2))
        assert cache.invalidate(lines(1, 2, 99)) == 2  # 99 never seen
        assert cache.stats.invalidations == 2
        result = cache.access(lines(0, 1, 2))
        assert result.misses == 2  # 1 and 2 reload; 0 still resident

    def test_flush_forgets_everything(self):
        cache = AnalyticCache(256)
        cache.access(lines(0, 1, 2, 3))
        assert cache.flush() == 4  # all four expected resident
        assert cache.access(lines(0, 1, 2, 3)).misses == 4

    def test_expected_resident_bounded(self):
        cache = AnalyticCache(16)
        cache.access(np.arange(0, 64, dtype=np.int64))
        er = cache.expected_resident(np.arange(0, 64, dtype=np.int64))
        assert 0.0 <= er <= 64.0
        assert cache.expected_resident(lines()) == 0.0
        assert cache.expected_resident(lines(10_000)) == 0.0  # never seen

    def test_rejects_empty_cache(self):
        with pytest.raises(ValueError):
            AnalyticCache(0)


class TestReuseHistogram:
    def test_counts_and_compulsory(self):
        hist = ReuseHistogram()
        hist.add(np.asarray([0.0, 0.5, 3.0, 100.0]))
        hist.add_compulsory(2)
        assert hist.total == 6
        assert hist.buckets[0] == 2  # d in [0, 1)

    def test_snapshot_delta(self):
        hist = ReuseHistogram()
        hist.add(np.asarray([1.0, 2.0]))
        snap = hist.snapshot()
        hist.add(np.asarray([4.0]))
        hist.add_compulsory(1)
        diff = hist.delta(snap)
        assert diff.total == 2
        assert snap.total == 2  # snapshot is independent

    def test_cache_populates_histogram(self):
        cache = AnalyticCache(64)
        cache.access(lines(0, 1, 2))
        cache.access(lines(0, 1, 2))
        assert cache.hist.compulsory == 3
        assert cache.hist.total == 6


# -- bit-for-bit parity with the simulated oracle -------------------------


def _run_two_thread_sharing(backend: str, q: float):
    """Two FCFS threads on one cpu; B touches fraction ``q`` of A's
    region plus enough private lines to keep its footprint constant.

    The bodies never block, so FCFS runs A to completion before B: every
    reuse happens at miss-distance zero, the regime where the survival
    form is exact (``k ** 0 == 1``).  Interleaving the threads would put
    d > 0 between A's reuses and the uniform-eviction form would bleed
    fractional misses the conflict-free simulator does not -- that
    *approximate* regime belongs to the oracle sweep's bounds, not here.
    """
    machine = Machine(SMALL, seed=0, backend=backend)
    runtime = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
    region_a = runtime.alloc_lines("shared", 32)
    shared = int(round(q * 32))
    region_b = runtime.alloc_lines("private-b", 32 - shared) if shared < 32 \
        else None

    def body_a():
        for _ in range(4):
            yield Touch(region_a.lines())

    def body_b():
        b_lines = region_a.lines()[:shared]
        if region_b is not None:
            b_lines = np.concatenate([b_lines, region_b.lines()])
        b_lines = np.sort(b_lines)
        for _ in range(4):
            yield Touch(b_lines)

    tid_a = runtime.at_create(body_a, name="a")
    tid_b = runtime.at_create(body_b, name="b")
    runtime.run()
    return (
        runtime.thread(tid_a).stats.misses,
        runtime.thread(tid_b).stats.misses,
        machine.total_l2_misses(),
    )


class TestSimulatedOracleExactness:
    """Where the closed form is exact (regions fit the cache, no
    conflicts, no coherence), the analytic backend must agree with the
    simulated oracle bit-for-bit -- not approximately."""

    def test_q0_disjoint_footprints_exact(self):
        sim = _run_two_thread_sharing("sim", q=0.0)
        ana = _run_two_thread_sharing("analytic", q=0.0)
        assert sim == ana
        # q=0: each thread pays its own 32 compulsory misses, no more
        assert sim[0] == 32 and sim[1] == 32

    def test_q1_full_sharing_exact(self):
        sim = _run_two_thread_sharing("sim", q=1.0)
        ana = _run_two_thread_sharing("analytic", q=1.0)
        assert sim == ana
        # q=1: B touches only lines A already loaded -- zero misses
        assert sim[0] == 32 and sim[1] == 0

    def test_partial_sharing_exact(self):
        # intermediate q is still conflict-free here, so still exact
        sim = _run_two_thread_sharing("sim", q=0.5)
        ana = _run_two_thread_sharing("analytic", q=0.5)
        assert sim == ana
        assert sim[1] == 16  # B's private half misses, shared half hits

    def test_repeated_touches_exact(self):
        machine_s = Machine(SMALL, seed=0, backend="sim")
        machine_a = Machine(SMALL, seed=0, backend="analytic")
        for machine in (machine_s, machine_a):
            runtime = Runtime(
                machine, FCFSScheduler(model_scheduler_memory=False)
            )
            region = runtime.alloc_lines("r", 32)

            def body():
                for _ in range(8):
                    yield Touch(region.lines())

            runtime.at_create(body)
            runtime.run()
        assert (
            machine_s.total_l2_misses() == machine_a.total_l2_misses() == 32
        )


class TestDegenerateRuns:
    """Degenerate workload shapes through the full runtime stack."""

    def _totals(self, backend, body_factory):
        machine = Machine(SMALL, seed=0, backend=backend)
        runtime = Runtime(
            machine, FCFSScheduler(model_scheduler_memory=False)
        )
        tid = runtime.at_create(body_factory(runtime), name="t")
        runtime.run()
        t = runtime.thread(tid)
        return t.stats.misses, t.stats.refs, t.stats.intervals

    def test_empty_touch_stream(self):
        # a thread that never touches: zero refs, zero misses, and the
        # interval accounting must not divide by or round anything weird
        def factory(runtime):
            def body():
                yield Sleep(100)
            return body

        sim = self._totals("sim", factory)
        ana = self._totals("analytic", factory)
        assert sim == ana
        assert sim[0] == 0 and sim[1] == 0

    def test_single_line_region_run(self):
        def factory(runtime):
            region = runtime.alloc_lines("one", 1)

            def body():
                for _ in range(5):
                    yield Touch(region.lines())
                    yield Sleep(200)
            return body

        sim = self._totals("sim", factory)
        ana = self._totals("analytic", factory)
        assert sim == ana
        assert sim[0] == 1  # one compulsory miss, ever

    def test_interval_shorter_than_one_touch(self):
        # first interval ends (Sleep) before any touch: a zero-ref
        # interval must report zero misses under both backends
        def factory(runtime):
            region = runtime.alloc_lines("r", 16)

            def body():
                yield Sleep(500)  # interval 1: no touches at all
                yield Touch(region.lines())
            return body

        sim = self._totals("sim", factory)
        ana = self._totals("analytic", factory)
        assert sim == ana
        assert sim[0] == 16
        assert sim[2] >= 2  # the empty interval really happened
