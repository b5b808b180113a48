"""Tests for the CML device and runtime sharing inference (section 7)."""

import numpy as np
import pytest

from repro.inference import CMLBuffer, SharingInference
from repro.inference.infer import _Signature
from repro.machine.counters import CounterEvent
from repro.machine.smp import Machine
from repro.sched.fcfs import FCFSScheduler
from repro.sched.locality import make_lff
from repro.threads.events import Sleep, Touch
from repro.threads.runtime import Runtime


class TestCMLBuffer:
    def test_records_page_of_misses(self, machine):
        device = CMLBuffer(machine.cpus[0], machine.vm.lines_per_page)
        device.set_current_thread(7)
        machine.touch(0, np.arange(machine.vm.lines_per_page + 1))
        records = device.drain()
        assert len(records) == 2  # two pages touched
        assert all(r.tid == 7 for r in records)

    def test_ignores_traffic_with_no_thread(self, machine):
        device = CMLBuffer(machine.cpus[0], machine.vm.lines_per_page)
        machine.touch(0, np.arange(10))
        assert device.drain() == []

    def test_hits_not_recorded(self, machine):
        device = CMLBuffer(machine.cpus[0], machine.vm.lines_per_page)
        device.set_current_thread(1)
        machine.touch(0, np.arange(10))
        device.drain()
        machine.touch(0, np.arange(10))  # all hits now
        assert device.drain() == []

    def test_bounded_capacity_drops_oldest(self, machine):
        device = CMLBuffer(
            machine.cpus[0], machine.vm.lines_per_page, capacity=2
        )
        device.set_current_thread(1)
        lpp = machine.vm.lines_per_page
        machine.touch(0, np.arange(4 * lpp))  # 4 pages -> 2 dropped
        records = device.drain()
        assert len(records) == 2
        assert device.dropped == 2

    def test_drain_clears(self, machine):
        device = CMLBuffer(machine.cpus[0], machine.vm.lines_per_page)
        device.set_current_thread(1)
        machine.touch(0, np.arange(5))
        device.drain()
        assert len(device) == 0

    def test_zero_capacity_rejected(self, machine):
        with pytest.raises(ValueError):
            CMLBuffer(machine.cpus[0], 32, capacity=0)


class TestSignature:
    def test_bounded_lru(self):
        sig = _Signature(max_pages=2)
        sig.add(1)
        sig.add(2)
        sig.add(3)  # evicts 1
        assert sig.pages() == {2, 3}

    def test_touch_refreshes_recency(self):
        sig = _Signature(max_pages=2)
        sig.add(1)
        sig.add(2)
        sig.add(1)  # refresh 1
        sig.add(3)  # evicts 2 (now oldest)
        assert sig.pages() == {1, 3}


def _shared_state_workload(runtime, rounds=10, shared_lines=64,
                           private_lines=64):
    shared = runtime.alloc_lines("shared", shared_lines)
    regions = {
        name: runtime.alloc_lines(f"{name}-priv", private_lines)
        for name in ("a", "b")
    }

    def body(priv):
        def gen():
            for _ in range(rounds):
                yield Touch(np.concatenate([shared.lines(), priv.lines()]))
                yield Sleep(2000)
        return gen

    tid_a = runtime.at_create(body(regions["a"]), name="a")
    tid_b = runtime.at_create(body(regions["b"]), name="b")
    return tid_a, tid_b


class TestSharingInference:
    def test_detects_overlap(self, machine):
        runtime = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
        # probe all four pages per switch so both shared pages re-miss
        inference = SharingInference(runtime, min_q=0.2, probe_pages=4)
        tid_a, tid_b = _shared_state_workload(runtime)
        estimates = []

        class Peek:
            def on_state_declared(self, *a):
                pass

            def on_touch(self, *a):
                pass

            def on_dispatch(self, *a):
                pass

            def on_block(self, cpu, thread, misses, finished):
                estimates.append(inference.estimate(tid_a, tid_b))

        runtime.add_observer(Peek())
        runtime.run()
        assert inference.edges_written > 0
        # half of each thread's pages are shared: q should approach ~0.5
        # (sampling loss keeps the estimate below the true value)
        assert max(estimates) > 0.35

    def test_disjoint_threads_get_no_edges(self, machine):
        runtime = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
        inference = SharingInference(runtime, min_q=0.2)
        for name in ("x", "y"):
            region = runtime.alloc_lines(f"{name}-state", 64)

            def body(region=region):
                for _ in range(8):
                    yield Touch(region.lines())
                    yield Sleep(2000)

            runtime.at_create(body, name=name)
        runtime.run()
        assert inference.edges_written == 0

    def test_probe_invalidations_reach_a_pic(self, machine):
        runtime = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
        inference = SharingInference(runtime, probe_pages=1)
        cpu = machine.cpus[0]
        cpu.counters.configure(
            CounterEvent.ECACHE_REFS,
            CounterEvent.ECACHE_INVALIDATIONS,
            privileged=True,
        )
        lpp = machine.vm.lines_per_page
        machine.touch(0, np.arange(lpp + 3))
        (pline,) = machine.vm.translate_lines(np.asarray([lpp])).tolist()
        inference._probe(0, {pline // lpp})
        assert inference.probes == 1
        refs, invalidations = cpu.counters.read()
        assert refs == cpu.l2.stats.refs == lpp + 3
        assert invalidations == cpu.l2.stats.invalidations == 3

    def test_probing_can_be_disabled(self, machine):
        runtime = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
        inference = SharingInference(runtime, probe_pages=0)
        _shared_state_workload(runtime, rounds=4)
        runtime.run()
        assert inference.probes == 0

    def test_edges_feed_the_real_graph(self, machine):
        """Inferred coefficients land in runtime.graph mid-run, where the
        locality schemes read them."""
        runtime = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
        inference = SharingInference(runtime, min_q=0.15)
        tid_a, tid_b = _shared_state_workload(runtime)
        seen = []

        class Peek:
            def on_state_declared(self, *a):
                pass

            def on_touch(self, *a):
                pass

            def on_dispatch(self, *a):
                pass

            def on_block(self, cpu, thread, misses, finished):
                seen.append(runtime.graph.coefficient(tid_a, tid_b))

        runtime.add_observer(Peek())
        runtime.run()
        assert max(seen) > 0.0

    def test_finished_threads_forgotten(self, machine):
        runtime = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
        inference = SharingInference(runtime)
        tid_a, tid_b = _shared_state_workload(runtime, rounds=3)
        runtime.run()
        assert inference.signature_size(tid_a) == 0
        assert inference.estimate(tid_a, tid_b) == 0.0

    def test_works_under_locality_scheduler(self, smp):
        runtime = Runtime(smp, make_lff(model_scheduler_memory=False))
        inference = SharingInference(runtime, min_q=0.15)
        _shared_state_workload(runtime, rounds=6)
        runtime.run()  # completes; devices on all 4 cpus
        assert len(inference.devices) == 4

    def test_invalid_params_rejected(self, machine):
        runtime = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
        with pytest.raises(ValueError):
            SharingInference(runtime, smoothing=0.0)
        with pytest.raises(ValueError):
            SharingInference(runtime, probe_pages=-1)
