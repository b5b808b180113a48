"""The event queue and the event-driven engine (``repro.sim.events``).

Covers the queue's deterministic ``(time, seq, tid)`` ordering (including
a hypothesis proof that pop order is independent of heap insertion
order), the sleep timer end to end, and the audited step-count
complexity claims: the event engine's faithful loop
iterations are O(executed events), where the stepped loop pays O(cpus)
idle iterations per busy step.  Bit-parity between the engines is pinned
separately, cell by cell, in ``test_engine_parity.py``.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.configs import SMALL
from repro.machine.smp import Machine
from repro.sched import SCHEDULERS
from repro.sched.fcfs import FCFSScheduler
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.trace import record_workload_trace
from repro.sim.tracer import event_timeline
from repro.threads.errors import StepBudgetExceeded
from repro.threads.events import Sleep
from repro.threads.runtime import Runtime
from repro.workloads import TasksParams, TasksWorkload
from repro.workloads.server import ServerParams, ServerWorkload


# -- the queue ----------------------------------------------------------------


#: (time, tid) pairs; times collide often so tie-breaking is exercised
_EVENT_SPECS = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 7)), max_size=40
)


def _key(event):
    return (event.time, event.seq, event.tid)


class TestEventQueue:
    @given(specs=_EVENT_SPECS)
    def test_pop_order_is_the_key_order(self, specs):
        """Pops come back sorted by (time, seq, tid), nothing dropped."""
        queue = EventQueue()
        keys = [
            _key(queue.schedule(time, EventKind.THREAD_WAKEUP, tid))
            for time, tid in specs
        ]
        popped = [_key(heapq.heappop(queue.heap)) for _ in specs]
        assert popped == sorted(keys)
        assert not queue.heap
        assert queue.pushes == len(specs)

    @given(specs=_EVENT_SPECS, data=st.data())
    def test_pop_order_ignores_heap_insertion_order(self, specs, data):
        """The same event set heapified in any insertion order pops
        identically: the total order never falls back to heap layout."""
        events = [
            Event(time, seq, tid, EventKind.THREAD_WAKEUP, None)
            for seq, (time, tid) in enumerate(specs)
        ]
        shuffled = data.draw(st.permutations(events))
        heap = []
        for event in shuffled:
            heapq.heappush(heap, event)
        popped = [_key(heapq.heappop(heap)) for _ in range(len(heap))]
        assert popped == sorted(_key(e) for e in events)

    def test_schedule_order_breaks_time_ties(self):
        queue = EventQueue()
        first = queue.schedule(100, EventKind.THREAD_WAKEUP, 9)
        second = queue.schedule(100, EventKind.THREAD_WAKEUP, 1)
        assert _key(heapq.heappop(queue.heap)) == _key(first)
        assert _key(heapq.heappop(queue.heap)) == _key(second)

    def test_emit_logs_without_scheduling(self):
        queue = EventQueue()
        queue.enable_log(limit=2)
        for tid in range(3):
            queue.emit(10 + tid, EventKind.THREAD_BLOCK, tid)
        assert len(queue) == 0  # emitted events never enter the heap
        assert [e.tid for e in queue.log] == [0, 1]  # bounded log
        assert queue.log_dropped == 1
        # emitted events consume sequence numbers: a later scheduled
        # event still sorts after them at equal times
        event = queue.schedule(10, EventKind.THREAD_WAKEUP, 9)
        assert event.seq > 3


def test_truncated_log_is_no_timeline():
    """6,400 sleep timers fire on tasks under LFF on two cpus: a 4,096-row
    log keeps the first rows, counts the rest, and the timeline refuses to
    pass for the whole run until the limit covers it."""

    def run(log_events):
        _recorder, runtime = record_workload_trace(
            TasksWorkload(TasksParams()), SMALL.with_cpus(2), SCHEDULERS["lff"](),
            log_events=log_events,
        )
        return runtime

    runtime = run(4096)
    queue = runtime.event_queue
    assert (len(queue.log), queue.log_dropped, queue.pops) == (4096, 2304, 6400)
    with pytest.raises(ValueError, match=r"dropped 2304 .*enable_log\(limit=\)"):
        event_timeline(runtime)
    rows = event_timeline(run(6400))
    assert len(rows) == 6400
    assert {row[3] for row in rows} == {"THREAD_WAKEUP"}


# -- the sleep timer, end to end -----------------------------------------------


class TestEventKinds:
    def test_timer_wakeups_audited(self):
        runtime = Runtime(
            Machine(SMALL, seed=7), FCFSScheduler(model_scheduler_memory=False)
        )

        def body():
            for _ in range(3):
                yield Sleep(100)

        runtime.at_create(body, name="napper")
        runtime.run()
        assert runtime.timer_wakeups == 3


# -- step-count complexity (the audited counters) -----------------------------


def _run_server(engine, num_requests, cpus, sleep=200_000):
    params = ServerParams(
        num_requests=num_requests,
        sleep_cycles=sleep,
        stagger_cycles=3_000,
    )
    machine = Machine(SMALL.with_cpus(cpus), seed=0)
    runtime = Runtime(machine, SCHEDULERS["lff"](), engine=engine)
    ServerWorkload(params).build(runtime)
    runtime.run()
    return runtime


class TestStepComplexity:
    @given(
        num_requests=st.integers(8, 24),
        cpus=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=8, deadline=None)
    def test_event_engine_faithful_steps_are_o_events(
        self, num_requests, cpus
    ):
        """Faithful iterations scale with executed events, not with
        cpus x elapsed quanta: every idle iteration the stepped loop
        would burn a scheduler call on is replayed as a virtual step."""
        runtime = _run_server("event", num_requests, cpus)
        assert runtime.loop_steps <= 2 * runtime.events_executed + cpus

    def test_stepped_loop_pays_idle_iterations_the_event_engine_skips(
        self,
    ):
        stepped = _run_server("stepped", 24, 8)
        event = _run_server("event", 24, 8)
        assert stepped.events_executed == event.events_executed
        # the stepped loop burns several idle iterations per event ...
        assert stepped.loop_steps >= 5 * stepped.events_executed
        # ... which the event engine converts into O(1) virtual steps,
        # conserving the total number of replayed iterations
        assert event.loop_steps <= 2 * event.events_executed + 8
        assert event.virtual_steps > 0
        assert (
            event.loop_steps + event.virtual_steps == stepped.loop_steps
        )

    def test_step_counts_independent_of_sleep_duration(self):
        """Blocked time is jumped, not simulated: quadrupling the sleep
        gap changes no step counter in either engine."""
        short = _run_server("event", 24, 8, sleep=200_000)
        long = _run_server("event", 24, 8, sleep=800_000)
        assert short.loop_steps == long.loop_steps
        assert short.virtual_steps == long.virtual_steps
        assert short.events_executed == long.events_executed

    def test_budget_exception_leaves_resumable_bit_exact_state(self):
        """StepBudgetExceeded mid-run (the watchdog's chunking) flushes
        deferred virtual-step state; resuming completes bit-identically
        to an uninterrupted run."""
        chunked = _run_server("event", 12, 4)  # reference, uninterrupted

        params = ServerParams(
            num_requests=12, sleep_cycles=200_000, stagger_cycles=3_000
        )
        machine = Machine(SMALL.with_cpus(4), seed=0)
        runtime = Runtime(machine, SCHEDULERS["lff"](), engine="event")
        ServerWorkload(params).build(runtime)
        budget = 50
        while True:
            try:
                runtime.run(max_events=budget)
            except StepBudgetExceeded:
                budget += 50
            else:
                break
        ref = chunked.machine
        assert machine.time() == ref.time()
        assert machine.total_l2_misses() == ref.total_l2_misses()
        assert machine.total_instructions() == ref.total_instructions()
        assert runtime.context_switches == chunked.context_switches
        assert runtime.events_executed == chunked.events_executed
