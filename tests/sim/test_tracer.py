"""Tests for ground-truth footprint tracing."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.fig4 import _WalkBench
from repro.machine.configs import SMALL
from repro.machine.smp import Machine
from repro.sim.tracer import FootprintTracer


class TestObservedFootprints:
    def test_counts_resident_state_lines(self, machine):
        tracer = FootprintTracer(machine)
        tracer.on_state_declared(1, np.arange(10))
        machine.touch(0, np.arange(10))
        assert tracer.observed(0, 1) == 10

    def test_ignores_lines_outside_state(self, machine):
        tracer = FootprintTracer(machine)
        tracer.on_state_declared(1, np.arange(10))
        machine.touch(0, np.arange(20, 40))
        assert tracer.observed(0, 1) == 0

    def test_shared_lines_count_for_all_owners(self, machine):
        tracer = FootprintTracer(machine)
        tracer.on_state_declared(1, np.arange(10))
        tracer.on_state_declared(2, np.arange(5, 15))
        machine.touch(0, np.arange(5, 10))  # in both states
        assert tracer.observed(0, 1) == 5
        assert tracer.observed(0, 2) == 5

    def test_flush_zeroes_footprints(self, machine):
        tracer = FootprintTracer(machine)
        tracer.on_state_declared(1, np.arange(10))
        machine.touch(0, np.arange(10))
        machine.flush_all()
        assert tracer.observed(0, 1) == 0

    def test_eviction_decrements(self, machine):
        tracer = FootprintTracer(machine)
        n = machine.config.l2_lines
        tracer.on_state_declared(1, np.arange(4))
        machine.touch(0, np.arange(4))
        # walk enough distinct lines to evict the state
        big = machine.address_space.allocate_lines("big", 8 * n)
        for start in range(0, 8 * n, 512):
            machine.touch(0, big.lines()[start : start + 512])
        assert tracer.observed(0, 1) < 4

    def test_per_cpu_isolation(self, smp):
        tracer = FootprintTracer(smp)
        tracer.on_state_declared(1, np.arange(10))
        smp.touch(2, np.arange(10))
        assert tracer.observed(2, 1) == 10
        assert tracer.observed(0, 1) == 0

    def test_invalidation_decrements(self, smp):
        tracer = FootprintTracer(smp)
        tracer.on_state_declared(1, np.arange(10))
        smp.touch(0, np.arange(10))
        smp.touch(1, np.arange(10))
        smp.touch(1, np.arange(10), write=True)  # invalidates cpu0 copies
        assert tracer.observed(0, 1) == 0
        assert tracer.observed(1, 1) == 10

    def test_repeated_invalidation_counts_once(self, smp):
        # a write batch naming a line twice invalidates the remote copy
        # once, and reports it once
        tracer = FootprintTracer(smp)
        tracer.on_state_declared(1, np.arange(10))
        evicted = []
        smp.cpus[1].l2.on_evict(lambda plines: evicted.extend(plines.tolist()))
        smp.touch(1, np.asarray([5]))
        smp.touch(0, np.asarray([5, 5]), write=True)
        assert smp.cpus[1].l2.stats.invalidations == 1
        assert evicted == smp.vm.translate_lines(np.asarray([5])).tolist()
        assert tracer.observed(1, 1) == 0

    def test_consistency_check(self, machine):
        tracer = FootprintTracer(machine)
        tracer.on_state_declared(1, np.arange(50))
        tracer.on_state_declared(2, np.arange(25, 75))
        rng = np.random.default_rng(0)
        for _ in range(30):
            machine.touch(0, rng.integers(0, 400, size=64).astype(np.int64))
        assert tracer.check_consistency(0)

    def test_observed_all(self, machine):
        tracer = FootprintTracer(machine)
        tracer.on_state_declared(1, np.arange(5))
        machine.touch(0, np.arange(5))
        assert tracer.observed_all(0) == {1: 5}

    def test_state_declared_while_resident_counts(self, machine):
        tracer = FootprintTracer(machine)
        machine.touch(0, np.arange(4))
        tracer.on_state_declared(1, np.arange(4))
        assert tracer.observed(0, 1) == 4
        assert tracer.check_consistency(0)
        machine.flush_all()
        assert tracer.observed(0, 1) == 0

    def test_redeclaration_is_idempotent(self, machine):
        tracer = FootprintTracer(machine)
        tracer.on_state_declared(1, np.arange(5))
        tracer.on_state_declared(1, np.arange(5))
        machine.touch(0, np.arange(5))
        assert tracer.observed(0, 1) == 5


class _PerLineTracer:
    """Reference model: the tracer as a per-line loop over dicts and sets.

    Owners are looked up when a line is installed or evicted, and a state
    declared while lines are resident counts those lines at once; a line
    already attributed is not counted twice.
    """

    def __init__(self, machine):
        self.vm = machine.vm
        self.state = {}
        self.counts = [{} for _ in machine.cpus]
        #: per cpu, the virtual lines counted as resident
        self.attributed = [set() for _ in machine.cpus]
        for cpu_id, cpu in enumerate(machine.cpus):
            cpu.l2.on_install(
                lambda plines, c=cpu_id: self._apply(c, plines, True)
            )
            cpu.l2.on_evict(
                lambda plines, c=cpu_id: self._apply(c, plines, False)
            )

    def on_state_declared(self, tid, vlines):
        for vline in vlines.tolist():
            owners = self.state.get(vline, ())
            if tid not in owners:
                self.state[vline] = owners + (tid,)
                for counts, attributed in zip(self.counts, self.attributed):
                    if vline in attributed:
                        counts[tid] = counts.get(tid, 0) + 1

    def _apply(self, cpu, plines, installed):
        counts = self.counts[cpu]
        attributed = self.attributed[cpu]
        delta = 1 if installed else -1
        for vline in self.vm.reverse_lines(plines).tolist():
            if (vline in attributed) == installed:
                continue
            if installed:
                attributed.add(vline)
            else:
                attributed.discard(vline)
            for tid in self.state.get(vline, ()):
                counts[tid] = counts.get(tid, 0) + delta

    def observed(self, cpu, tid):
        return self.counts[cpu].get(tid, 0)


#: virtual lines the random steps draw from: either 16 hot lines, which
#: several threads declare and several cpus share, or four times SMALL's
#: 256-line cache, so touches collide and evict
_LINES = st.one_of(
    st.lists(st.integers(0, 15), min_size=1, max_size=16),
    st.lists(st.integers(0, 1023), min_size=1, max_size=40),
)

@st.composite
def _step(draw):
    """One step: declare a state, touch lines on a cpu, or flush.

    Touches come three times as often, so lines stay resident long enough
    for remote writes to invalidate them and for declarations to find
    them resident; a touch batch repeats every other line, so a write
    batch names some lines twice.
    """
    kind = draw(st.sampled_from(("declare", "touch", "touch", "touch", "flush")))
    if kind == "declare":
        return kind, draw(st.integers(1, 5)), draw(_LINES)
    if kind == "touch":
        lines = draw(_LINES)
        return kind, draw(st.integers(0, 3)), lines + lines[::2], draw(st.booleans())
    return (kind,)


class TestArrayTracerMatchesPerLineModel:
    @settings(max_examples=100, deadline=None)
    # a remote write naming a resident, declared line twice; a state
    # declared while its lines are resident
    @example(
        cpus=2,
        seed=0,
        steps=[
            ("declare", 1, [5]),
            ("touch", 1, [5, 6], False),
            ("touch", 0, [5, 5], True),
            ("touch", 1, [7], False),
            ("declare", 2, [5, 6, 7]),
            ("flush",),
        ],
    )
    @given(
        cpus=st.integers(1, 4),
        seed=st.integers(0, 99),
        steps=st.lists(_step(), min_size=1, max_size=30),
    )
    def test_observed_matches_reference(self, cpus, seed, steps):
        machine = Machine(replace(SMALL, num_cpus=cpus), seed=seed)
        tracer = FootprintTracer(machine)
        reference = _PerLineTracer(machine)
        for step in steps:
            if step[0] == "declare":
                _, tid, lines = step
                vlines = np.asarray(lines, dtype=np.int64)
                tracer.on_state_declared(tid, vlines)
                reference.on_state_declared(tid, vlines)
            elif step[0] == "touch":
                _, cpu, lines, write = step
                machine.touch(cpu % cpus, np.asarray(lines), write=write)
            else:
                machine.flush_all()
            for cpu in range(cpus):
                assert tracer.check_consistency(cpu)
                for tid in range(1, 6):
                    assert tracer.observed(cpu, tid) == reference.observed(
                        cpu, tid
                    )


class TestReferenceCycles:
    def test_walk_bench_freed_by_reference_counting(self):
        """The tracer's cache listeners hold neither the tracer nor the
        machine, so a fig4 bench needs no cyclic collection."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            bench = _WalkBench()
            bench.pretouch(bench.consecutive_lines(0, 64))
            refs = [weakref.ref(bench.machine), weakref.ref(bench.tracer)]
            del bench
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()
