"""Tests for the Active Threads runtime loop and event interpretation."""

import numpy as np
import pytest

from repro.machine.smp import Machine
from repro.sched.fcfs import FCFSScheduler
from repro.threads.errors import DeadlockError, SyncError, ThreadError
from repro.threads.events import (
    Acquire,
    BarrierWait,
    Compute,
    CondSignal,
    CondWait,
    Join,
    Release,
    SemPost,
    SemWait,
    Sleep,
    Touch,
    Yield,
)
from repro.threads.runtime import Runtime
from repro.threads.sync import Barrier, Condition, Mutex, Semaphore
from repro.threads.thread import ThreadState


@pytest.fixture
def rt(machine):
    return Runtime(machine, FCFSScheduler(model_scheduler_memory=False))


@pytest.fixture
def smp_rt(smp):
    return Runtime(smp, FCFSScheduler(model_scheduler_memory=False))


class TestLifecycle:
    def test_single_thread_runs_to_completion(self, rt):
        log = []

        def body():
            log.append("a")
            yield Compute(10)
            log.append("b")

        tid = rt.at_create(body)
        rt.run()
        assert log == ["a", "b"]
        assert rt.thread(tid).state is ThreadState.DONE

    def test_touch_reaches_the_cache(self, rt):
        region = rt.alloc_lines("r", 10)

        def body():
            yield Touch(region.lines())

        rt.at_create(body)
        rt.run()
        assert rt.machine.total_l2_misses() == 10

    def test_compute_advances_clock(self, rt):
        def body():
            yield Compute(1234)

        rt.at_create(body)
        rt.run()
        assert rt.machine.cycles(0) >= 1234

    def test_generator_body_accepted_directly(self, rt):
        def gen():
            yield Compute(1)

        rt.at_create(gen())
        rt.run()

    def test_thread_stats_accumulate(self, rt):
        region = rt.alloc_lines("r", 5)

        def body():
            yield Touch(region.lines())
            yield Compute(100)

        tid = rt.at_create(body)
        rt.run()
        stats = rt.thread(tid).stats
        assert stats.refs == 5
        assert stats.instructions == 100
        assert stats.intervals == 1
        assert stats.misses == 5

    def test_at_self_inside_body(self, rt):
        seen = []

        def body():
            seen.append(rt.at_self())
            yield Compute(1)

        tid = rt.at_create(body)
        rt.run()
        assert seen == [tid]

    def test_at_self_outside_body_rejected(self, rt):
        with pytest.raises(ThreadError):
            rt.at_self()

    def test_context_switch_counted(self, rt):
        def body():
            yield Compute(1)

        rt.at_create(body)
        rt.at_create(body)
        rt.run()
        assert rt.context_switches == 2

    def test_max_events_guard(self, rt):
        def forever():
            while True:
                yield Compute(1)

        rt.at_create(forever)
        with pytest.raises(ThreadError):
            rt.run(max_events=50)


class TestJoin:
    def test_join_blocks_until_target_done(self, rt):
        order = []

        def child():
            yield Compute(10)
            order.append("child")

        def parent():
            tid = rt.at_create(child)
            yield Join(tid)
            order.append("parent")

        rt.at_create(parent)
        rt.run()
        assert order == ["child", "parent"]

    def test_join_on_finished_thread_continues(self, rt):
        def child():
            yield Compute(1)

        def parent():
            tid = rt.at_create(child)
            yield Compute(1)
            yield Join(tid)  # by now possibly done: must not deadlock
            yield Compute(1)

        rt.at_create(parent)
        rt.run()

    def test_join_unknown_tid_rejected(self, rt):
        def body():
            yield Join(9999)

        rt.at_create(body)
        with pytest.raises(ThreadError):
            rt.run()

    def test_multiple_joiners_all_wake(self, rt):
        woken = []

        def target():
            yield Compute(100)

        def waiter(name, tid):
            def body():
                yield Join(tid)
                woken.append(name)
            return body

        tid = rt.at_create(target)
        rt.at_create(waiter("a", tid))
        rt.at_create(waiter("b", tid))
        rt.run()
        assert sorted(woken) == ["a", "b"]


class TestMutexIntegration:
    def test_mutual_exclusion(self, rt):
        mutex = Mutex()
        inside = []

        def body(name):
            def gen():
                yield Acquire(mutex)
                inside.append(name)
                yield Compute(100)
                inside.append(name)
                yield Release(mutex)
            return gen

        rt.at_create(body("a"))
        rt.at_create(body("b"))
        rt.run()
        # entries come in adjacent pairs: no interleaving inside the lock
        assert inside[0] == inside[1]
        assert inside[2] == inside[3]

    def test_release_unowned_rejected(self, rt):
        mutex = Mutex()

        def body():
            yield Release(mutex)

        rt.at_create(body)
        with pytest.raises(SyncError):
            rt.run()


class TestSemaphoreIntegration:
    def test_producer_consumer(self, rt):
        sem = Semaphore(0)
        log = []

        def consumer():
            yield SemWait(sem)
            log.append("consumed")

        def producer():
            yield Compute(50)
            log.append("produced")
            yield SemPost(sem)

        rt.at_create(consumer)
        rt.at_create(producer)
        rt.run()
        assert log == ["produced", "consumed"]


class TestBarrierIntegration:
    def test_barrier_synchronises(self, rt):
        barrier = Barrier(3)
        phases = []

        def body(name):
            def gen():
                phases.append(("before", name))
                yield BarrierWait(barrier)
                phases.append(("after", name))
            return gen

        for name in "abc":
            rt.at_create(body(name))
        rt.run()
        befores = [i for i, p in enumerate(phases) if p[0] == "before"]
        afters = [i for i, p in enumerate(phases) if p[0] == "after"]
        assert max(befores) < min(afters)


class TestConditionIntegration:
    def test_wait_signal_roundtrip(self, rt):
        mutex, cond = Mutex(), Condition()
        log = []

        def waiter():
            yield Acquire(mutex)
            yield CondWait(cond, mutex)
            log.append("woken-with-mutex")
            assert mutex.owner is rt.thread(rt.at_self())
            yield Release(mutex)

        def signaller():
            yield Compute(100)
            yield Acquire(mutex)
            log.append("signalling")
            yield CondSignal(cond)
            yield Release(mutex)

        rt.at_create(waiter)
        rt.at_create(signaller)
        rt.run()
        assert log == ["signalling", "woken-with-mutex"]

    def test_wait_without_mutex_rejected(self, rt):
        mutex, cond = Mutex(), Condition()

        def body():
            yield CondWait(cond, mutex)

        rt.at_create(body)
        with pytest.raises(SyncError):
            rt.run()


class TestYieldSleep:
    def test_yield_round_robins(self, rt):
        order = []

        def body(name):
            def gen():
                order.append(name)
                yield Yield()
                order.append(name)
            return gen

        rt.at_create(body("a"))
        rt.at_create(body("b"))
        rt.run()
        assert order == ["a", "b", "a", "b"]

    def test_sleep_delays_until_wake_time(self, rt):
        times = {}

        def sleeper():
            yield Sleep(10_000)
            times["woke"] = rt.machine.cycles(0)

        rt.at_create(sleeper)
        rt.run()
        assert times["woke"] >= 10_000

    def test_sleeping_thread_not_schedulable(self, rt):
        order = []

        def sleeper():
            yield Sleep(5_000)
            order.append("sleeper")

        def worker():
            order.append("worker")
            yield Compute(10)

        rt.at_create(sleeper)
        rt.at_create(worker)
        rt.run()
        assert order == ["worker", "sleeper"]


class TestDeadlock:
    def test_deadlock_detected(self, rt):
        mutex_a, mutex_b = Mutex(), Mutex()

        def one():
            yield Acquire(mutex_a)
            yield Compute(10)
            yield Acquire(mutex_b)

        def two():
            yield Acquire(mutex_b)
            yield Compute(10)
            yield Acquire(mutex_a)

        rt.at_create(one)
        rt.at_create(two)
        with pytest.raises(DeadlockError):
            rt.run()

    def test_join_cycle_detected(self, rt):
        tids = {}

        def one():
            yield Compute(10)
            yield Join(tids["two"])

        def two():
            yield Compute(10)
            yield Join(tids["one"])

        tids["one"] = rt.at_create(one)
        tids["two"] = rt.at_create(two)
        with pytest.raises(DeadlockError):
            rt.run()

    def test_deadlock_reports_wait_for_cycle(self, rt):
        mutex_a = Mutex(name="mutex-a")
        mutex_b = Mutex(name="mutex-b")

        def one():
            yield Acquire(mutex_a)
            yield Yield()  # let "two" take mutex-b before we want it
            yield Acquire(mutex_b)

        def two():
            yield Acquire(mutex_b)
            yield Yield()
            yield Acquire(mutex_a)

        rt.at_create(one, name="one")
        rt.at_create(two, name="two")
        with pytest.raises(DeadlockError) as excinfo:
            rt.run()
        err = excinfo.value
        # the error names the actual thread -> resource -> owner chain
        assert err.cycle is not None
        assert {t.name for t in err.cycle} == {"one", "two"}
        message = str(err)
        assert "wait-for cycle" in message
        assert "mutex-a (held by one)" in message
        assert "mutex-b (held by two)" in message

    def test_join_cycle_spelled_out(self, rt):
        tids = {}

        def one():
            yield Compute(10)
            yield Join(tids["two"])

        def two():
            yield Compute(10)
            yield Join(tids["one"])

        tids["one"] = rt.at_create(one, name="one")
        tids["two"] = rt.at_create(two, name="two")
        with pytest.raises(DeadlockError) as excinfo:
            rt.run()
        assert "join(" in str(excinfo.value)
        assert excinfo.value.cycle is not None

    def test_cycle_free_deadlock_lists_casualties(self, rt):
        barrier = Barrier(2)  # only one thread will ever arrive

        def body():
            yield BarrierWait(barrier)

        rt.at_create(body, name="lonely")
        with pytest.raises(DeadlockError) as excinfo:
            rt.run()
        assert excinfo.value.cycle is None
        assert "lonely" in str(excinfo.value)


class TestSMP:
    def test_threads_spread_across_cpus(self, smp_rt):
        def body():
            yield Compute(10_000)

        for _ in range(4):
            smp_rt.at_create(body)
        smp_rt.run()
        used = {
            t.last_cpu for t in smp_rt.threads.values()
        }
        assert len(used) == 4  # pure compute spreads perfectly

    def test_migrations_counted(self, smp_rt):
        def body():
            for _ in range(5):
                yield Compute(100)
                yield Sleep(1000)

        tids = [smp_rt.at_create(body) for _ in range(8)]
        smp_rt.run()
        total = sum(smp_rt.thread(t).stats.migrations for t in tids)
        assert total >= 0  # bookkeeping exists; FCFS may or may not migrate

    def test_unknown_event_rejected(self, rt):
        def body():
            yield "not an event"

        rt.at_create(body)
        with pytest.raises(ThreadError):
            rt.run()


class TestObserverHooks:
    def test_on_touch_receives_the_yielded_touch(self, rt):
        region = rt.alloc_lines("r", 4)
        read = Touch(region.lines())
        write = Touch(region.lines()[:2], write=True)
        seen = []

        class TouchOnly:
            def on_touch(self, cpu, thread, touch):
                seen.append((thread.tid, touch))

        rt.add_observer(TouchOnly())

        def body():
            yield read
            yield write

        tid = rt.at_create(body)
        rt.run()
        assert [t for t, _ in seen] == [tid, tid]
        assert seen[0][1] is read and seen[1][1] is write
        assert [touch.write for _, touch in seen] == [False, True]


class TestCounterOverflowSurfacing:
    def test_narrow_counters_flag_wrapped_interval(self, machine):
        from repro.machine.counters import PerformanceCounters

        # shrink the PICs to 8 bits so one 200-line touch wraps them
        for cpu in machine.cpus:
            cpu.counters = PerformanceCounters(width_bits=8)
        rt = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
        region = rt.alloc_lines("r", 200)

        def body():
            yield Touch(region.lines())

        rt.at_create(body)
        rt.run()
        assert rt.counter_overflow_suspects >= 1
        assert rt.counter_diagnostics
        assert "wrapped" in rt.counter_diagnostics[0]

    def test_wide_counters_never_flag(self, rt):
        region = rt.alloc_lines("r", 200)

        def body():
            yield Touch(region.lines())

        rt.at_create(body)
        rt.run()
        assert rt.counter_overflow_suspects == 0
        assert rt.counter_diagnostics == []


class TestReferenceCounting:
    @pytest.mark.parametrize("policy, injector, checker", [
        pytest.param("fcfs", False, False, id="fcfs"),
        pytest.param("lff", False, False, id="lff"),
        pytest.param("static", False, False, id="static"),
        pytest.param("lff", True, False, id="lff-injector"),
        pytest.param("lff", False, True, id="lff-checker"),
        pytest.param("lff", True, True, id="lff-injector-checker"),
    ])
    def test_finished_run_is_freed_without_cyclic_gc(
        self, smp_config, policy, injector, checker
    ):
        """Neither the handler table, the scheduler, a fault injector
        nor an invariant checker holds the runtime strongly, so dropping
        a finished run frees its machine at once instead of at the next
        cyclic collection."""
        import gc
        import weakref

        from repro.faults import FaultInjector, FaultPlan, InvariantChecker
        from repro.sched import SCHEDULERS

        machine = Machine(smp_config, seed=0)
        rt = Runtime(
            machine,
            SCHEDULERS[policy](),
            injector=FaultInjector(FaultPlan(seed=1)) if injector else None,
        )
        if checker:
            rt.add_observer(InvariantChecker(rt))
        region = rt.alloc_lines("r", 40)

        def body():
            yield Touch(region.lines(), write=True)
            yield Compute(10)

        for _ in range(3):
            rt.at_create(body)
        rt.run()
        freed = weakref.ref(machine)
        gc.disable()
        try:
            del machine, rt
            assert freed() is None
        finally:
            gc.enable()
