"""The Active Threads runtime: event interpretation and scheduling loop.

The runtime multiplexes user-level threads over the simulated SMP.  It
owns the thread table, the sharing-annotation graph, the per-cpu
performance-counter views, and the timer queue; the scheduling *policy*
(FCFS, LFF, CRT) is pluggable through :class:`repro.sched.base.Scheduler`.

Execution is a deterministic discrete-event simulation: at each step the
cpu with the smallest cycle clock acts (ties to the lowest cpu id), either
stepping its current thread by one yielded event or dispatching a new one.
Two engines implement that contract with bit-identical counters (see
docs/MODEL.md "The event engine"): the quantum-stepped loop below
(``engine="stepped"``, the default) and the event-driven loop in
:mod:`repro.sim.events` (``engine="event"``), which parks idle cpus and
advances simulated time to the next queued event so blocked and sleeping
threads cost no Python work.  Sleep timers, the only queued events, live
in one deterministic :class:`~repro.sim.events.EventQueue` shared by both
engines.  Threads are never preempted: a thread runs until it blocks,
yields, sleeps or finishes -- the paper's scheduling interval -- at which
point the runtime performs the paper's context-switch protocol: read the
PICs to get the interval's miss count ``n`` (charging the few-instruction
read cost), hand ``n`` to the scheduler for its O(d) priority updates
(charging the reported cost), and charge the ~100-instruction base
context switch [33].

Costs the runtime charges to the simulated clock:

====================  =====================================================
``SYNC_COST``         a lock/semaphore/barrier/condvar operation
``CREATE_COST``       ``at_create`` (thread control block + stack setup)
counter read          ``repro.machine.counters.READ_COST_INSTRUCTIONS``
context switch        ``MachineConfig.context_switch_instructions``
scheduler work        whatever the policy reports per operation
====================  =====================================================
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Generator, List, Optional, Sequence, Union

import numpy as np

from repro.core.sharing import SharingGraph
from repro.machine.address import Region
from repro.machine.counters import MissCounterView
from repro.machine.smp import Machine
from repro.threads import events as ev
from repro.threads.errors import (
    DeadlockError,
    StepBudgetExceeded,
    SyncError,
    ThreadError,
    find_wait_cycle,
)
from repro.threads.sync import Barrier, Condition, Mutex, Semaphore
from repro.threads.thread import ActiveThread, ThreadState

#: instruction cost of one synchronisation operation (lock/unlock etc.);
#: "within an order of magnitude of a function call cost" [1]
SYNC_COST = 20
#: instruction cost of at_create (control block, stack registration)
CREATE_COST = 200

Body = Union[Generator, Callable[[], Generator]]

#: sync-carrying event classes -> attributes holding their sync objects;
#: the interpreter registers (auto-names) these before observers see the
#: event, so every observer and error message agrees on the name
#: cap on the per-runtime counter-overflow diagnostic trail; the tally
#: (:attr:`Runtime.counter_overflow_suspects`) is unbounded, only the
#: stored messages are
_MAX_COUNTER_DIAGNOSTICS = 8

_SYNC_EVENT_ATTRS = {
    ev.Acquire: ("mutex",),
    ev.Release: ("mutex",),
    ev.SemWait: ("semaphore",),
    ev.SemPost: ("semaphore",),
    ev.BarrierWait: ("barrier",),
    ev.CondWait: ("condition", "mutex"),
    ev.CondSignal: ("condition",),
    ev.CondBroadcast: ("condition",),
}

#: event class -> interpreter method name, in the same precedence order as
#: the historical isinstance chain (matters only for event *subclasses*,
#: which resolve to the first base they satisfy)
_EVENT_HANDLERS = (
    (ev.Touch, "_exec_touch"),
    (ev.Compute, "_exec_compute"),
    (ev.Acquire, "_exec_acquire"),
    (ev.Release, "_exec_release"),
    (ev.SemWait, "_exec_sem_wait"),
    (ev.SemPost, "_exec_sem_post"),
    (ev.BarrierWait, "_exec_barrier_wait"),
    (ev.CondWait, "_exec_cond_wait"),
    (ev.CondSignal, "_exec_cond_signal"),
    (ev.CondBroadcast, "_exec_cond_broadcast"),
    (ev.Join, "_exec_join"),
    (ev.Yield, "_exec_yield"),
    (ev.Sleep, "_exec_sleep"),
)


class Observer:
    """Measurement hook interface; all methods optional no-ops.

    Observers are measurement-only (the paper's simulator role); the
    scheduler never sees them.
    """

    def on_state_declared(self, tid: int, vlines: np.ndarray) -> None:
        """A thread declared ``vlines`` as part of its state."""

    def on_dispatch(self, cpu: int, thread: ActiveThread) -> None:
        """A thread started a scheduling interval."""

    def on_touch(self, cpu: int, thread: ActiveThread, touch) -> None:
        """A touch batch completed; ``touch`` is the
        :class:`~repro.threads.events.Touch` the body yielded (its
        virtual ``lines`` and ``write`` flag)."""

    def on_block(
        self, cpu: int, thread: ActiveThread, misses: int, finished: bool
    ) -> None:
        """A scheduling interval ended with ``misses`` E-cache misses."""

    def on_event(self, cpu: int, thread: ActiveThread, event) -> None:
        """A thread yielded ``event``, about to be interpreted.

        Called before the event mutates any runtime state, so the runtime
        is at a consistent point -- the hook the invariant checker uses.
        """

    def on_create(
        self, parent: Optional[ActiveThread], thread: ActiveThread
    ) -> None:
        """``at_create`` registered ``thread`` (``parent`` is the creating
        thread, or ``None`` when created from outside any thread body).

        The creation edge is a happens-before edge: everything the parent
        did before ``at_create`` is ordered before the child's first step
        -- which is what the race sanitizer consumes this hook for.
        """


class Runtime:
    """Interprets thread bodies against a machine under a scheduler."""

    #: the selectable scheduling-loop engines (CLI: ``--engine``)
    ENGINES = ("stepped", "event")
    #: the engine every entry point defaults to: the stepped loop is the
    #: reference the event engine is held bit-identical against
    DEFAULT_ENGINE = "stepped"

    def __init__(
        self,
        machine: Machine,
        scheduler,
        injector=None,
        controller=None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        if engine not in self.ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {self.ENGINES}"
            )
        self.engine = engine
        self.machine = machine
        self.scheduler = scheduler
        #: optional fault injector (see repro.faults): corrupts the hint
        #: paths (annotations, counter readings) and perturbs threads.
        #: The runtime only relies on its duck-typed hook methods.
        self.injector = injector
        #: optional schedule controller (see repro.analysis.mc): gets a
        #: veto before every body step and may force a preemption there,
        #: turning each step boundary into an explorable choice point.
        #: Duck-typed: only ``should_preempt(cpu, thread) -> bool`` is
        #: required.  Like the injector, it can only *rearrange* legal
        #: schedules -- it cannot make the runtime take an illegal step.
        self.controller = controller
        self.graph = SharingGraph()
        self.threads: Dict[int, ActiveThread] = {}
        self.observers: List[Observer] = []
        #: observers that implement the per-event hook; ad-hoc duck-typed
        #: observers (common in tests) may omit on_event entirely
        self._event_observers: List[Observer] = []
        #: observers implementing the thread-creation hook (same contract)
        self._create_observers: List[Observer] = []
        #: per-hook observer lists, filtered at attach time so the stepping
        #: loop never pays for hooks nobody overrides (tracing off means
        #: these are empty and the hot path skips observer work entirely)
        self._touch_observers: List[Observer] = []
        self._dispatch_observers: List[Observer] = []
        self._block_observers: List[Observer] = []
        self._state_observers: List[Observer] = []
        #: per-kind counters for lazily naming anonymous sync objects; a
        #: per-runtime registry (not a class counter) so auto names -- and
        #: trace signatures built from them -- do not depend on how many
        #: objects earlier runs in the same process created
        self._sync_counters: Dict[str, int] = {}
        self._next_tid = 1
        self._live = 0
        self._current: List[Optional[ActiveThread]] = [None] * machine.config.num_cpus
        self._views = [MissCounterView(cpu.counters) for cpu in machine.cpus]
        if injector is not None:
            # a weak proxy, as the scheduler gets: the runtime holds the
            # injector, so a strong back-reference would be a cycle
            injector.attach(weakref.proxy(self))
            self._views = [
                injector.wrap_view(cpu_id, view)
                for cpu_id, view in enumerate(self._views)
            ]
        # deferred import: repro.sim's package init imports the driver,
        # which imports this module (same idiom as run_hardened)
        from repro.sim import events as sim_events

        #: the deterministic event queue shared by both engines: sleep
        #: timers (THREAD_WAKEUP), ordered by (time, seq, tid)
        self.event_queue = sim_events.EventQueue()
        self._event_kinds = sim_events.EventKind
        self._event_engine = None
        self._stepping: Optional[ActiveThread] = None
        self.context_switches = 0
        self.events_executed = 0
        #: THREAD_WAKEUP timers that actually woke a thread -- event-time
        #: progress, the signal the watchdog's stall detector keys on
        self.timer_wakeups = 0
        #: audited count of full (faithful) scheduling-loop iterations;
        #: the event engine's O(events) complexity claim is asserted on
        #: this counter (tests/sim/test_events.py)
        self.loop_steps = 0
        #: audited count of O(1) virtual idle iterations (event engine)
        self.virtual_steps = 0
        #: bumped whenever a scheduler callback runs (pick, ready,
        #: dispatched, blocked, created); the event engine's cached
        #: idle-pick cost certificates are valid while this is unchanged
        self.sched_epoch = 0
        #: intervals whose PIC deltas looked wrapped (see
        #: :class:`~repro.machine.counters.MissCounterView`); the miss
        #: *value* is still clamped by the scheduler -- this tally is what
        #: keeps the wrap from passing silently
        self.counter_overflow_suspects = 0
        #: bounded trail of overflow-suspect diagnostics (first few)
        self.counter_diagnostics: List[str] = []
        #: event class -> interpreter method, unbound; subclasses are
        #: added lazily by :meth:`_resolve_handler`.  Neither this table
        #: nor the scheduler refers back to the runtime strongly, so a
        #: finished run and its machine are freed by reference counting,
        #: not at the next cyclic collection
        self._handlers: Dict[type, Callable] = {
            cls: getattr(type(self), name) for cls, name in _EVENT_HANDLERS
        }
        scheduler.attach(weakref.proxy(self))

    # -- public API used by thread bodies and workloads ---------------------

    def counter_view(self, cpu: int) -> Optional[MissCounterView]:
        """The per-cpu miss-counter view (or ``None`` for a bad cpu id).

        Schedulers consult this at ``thread_blocked`` time to learn
        whether the interval they were just handed was flagged suspect by
        the view (wrapped deltas, stuck-register glitches, mid-interval
        PCR reprograms) -- the value alone cannot carry that, because the
        view clamps impossible readings into the plausible range before
        the scheduler ever sees them.  Under fault injection the returned
        object is the injector's wrapper, which forwards the suspicion
        flags of the real reads underneath.
        """
        if 0 <= cpu < len(self._views):
            return self._views[cpu]
        return None

    def add_observer(self, observer: Observer) -> None:
        """Attach a measurement observer.

        Each hook the observer actually provides (an override of the
        :class:`Observer` no-op, or any method on a duck-typed observer)
        lands it on that hook's dispatch list; the base-class no-ops are
        never called, so idle hooks cost nothing per event.
        """
        self.observers.append(observer)
        if self._provides(observer, "on_event"):
            self._event_observers.append(observer)
        if self._provides(observer, "on_create"):
            self._create_observers.append(observer)
        if self._provides(observer, "on_touch"):
            self._touch_observers.append(observer)
        if self._provides(observer, "on_dispatch"):
            self._dispatch_observers.append(observer)
        if self._provides(observer, "on_block"):
            self._block_observers.append(observer)
        if self._provides(observer, "on_state_declared"):
            self._state_observers.append(observer)

    @staticmethod
    def _provides(observer: Observer, hook: str) -> bool:
        impl = getattr(type(observer), hook, None)
        if impl is None:
            # duck-typed observer: the hook counts only if the instance
            # carries it (e.g. assigned as an attribute)
            return hasattr(observer, hook)
        return impl is not getattr(Observer, hook, None)

    def register_sync(self, obj) -> None:
        """Assign an anonymous sync object its per-runtime auto name.

        Idempotent; explicit names are never overwritten.  Called by the
        event interpreter on first sight and by analysis observers that
        need a stable name before the interpreter branch runs.
        """
        if obj.name is None:
            count = self._sync_counters.get(obj.kind, 0) + 1
            self._sync_counters[obj.kind] = count
            obj.name = f"{obj.kind}-{count}"

    def alloc(self, name: str, size: int) -> Region:
        """Allocate a named region in the shared address space."""
        return self.machine.address_space.allocate(name, size)

    def alloc_lines(self, name: str, num_lines: int) -> Region:
        """Allocate a region spanning exactly ``num_lines`` cache lines."""
        return self.machine.address_space.allocate_lines(name, num_lines)

    def at_create(self, body: Body, name: Optional[str] = None) -> int:
        """Create a thread; returns its tid.

        ``body`` is a generator, or a zero-argument callable producing one.
        The new thread starts READY; the creating cpu (if any) is charged
        :data:`CREATE_COST` instructions.
        """
        gen = body() if callable(body) else body
        tid = self._next_tid
        self._next_tid += 1
        thread = ActiveThread(tid, gen, name=name)
        thread.ready_at = self.machine.time()
        self.threads[tid] = thread
        self._live += 1
        cpu = self._stepping_cpu()
        if cpu is not None:
            self.machine.compute(cpu, CREATE_COST)
        self.sched_epoch += 1
        self._charge(cpu, self.scheduler.thread_created(thread))
        self._charge(cpu, self.scheduler.thread_ready(thread))
        for observer in self._create_observers:
            observer.on_create(self._stepping, thread)
        return tid

    def at_share(self, src_tid: int, dst_tid: int, q: float) -> None:
        """The paper's annotation: fraction ``q`` of ``src_tid``'s state is
        shared with ``dst_tid``.  A hint only; never affects correctness --
        which is exactly why the fault injector is allowed to drop,
        corrupt, or fabricate these edges."""
        edges = [(src_tid, dst_tid, q)]
        if self.injector is not None:
            edges = self.injector.transform_share(src_tid, dst_tid, q)
        for src, dst, coeff in edges:
            self.graph.share(src, dst, coeff)

    def at_self(self) -> int:
        """Tid of the thread whose body is currently executing."""
        if self._stepping is None:
            raise ThreadError("at_self() called outside a thread body")
        return self._stepping.tid

    def declare_state(
        self, tid: int, regions: Sequence[Region]
    ) -> None:
        """Declare the regions making up a thread's state (ground truth for
        the footprint tracer; the scheduler never sees this)."""
        if not regions:
            return
        vlines = np.concatenate([r.lines() for r in regions])
        for observer in self._state_observers:
            observer.on_state_declared(tid, vlines)

    def thread(self, tid: int) -> ActiveThread:
        """Look up a thread by tid."""
        return self.threads[tid]

    # -- the scheduling loop -------------------------------------------------

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until every thread finishes (or ``max_events`` is hit).

        Dispatches to the engine selected at construction; the event
        engine instance persists across calls so the watchdog's chunked
        supervision resumes parked state exactly.
        """
        if self.engine == "event":
            engine = self._event_engine
            if engine is None:
                from repro.sim.events import EventEngine

                engine = self._event_engine = EventEngine(self)
            engine.run(max_events)
            return
        cpus = self.machine.cpus
        single = len(cpus) == 1
        current = self._current
        step = self._step
        queue = self.event_queue
        heap = queue.heap  # mutated in place by the queue, never rebound
        while self._live > 0:
            if max_events is not None and self.events_executed >= max_events:
                raise StepBudgetExceeded(max_events)
            self.loop_steps += 1
            cpu = 0 if single else self._min_clock_cpu()
            if heap:
                queue.fire_due(self, cpus[cpu].cycles)
            thread = current[cpu]
            if thread is not None:
                step(cpu, thread)
            else:
                dispatched = self._dispatch(cpu)
                if dispatched is None:
                    self._idle(cpu)

    def _min_clock_cpu(self) -> int:
        cpus = self.machine.cpus
        best = 0
        best_cycles = cpus[0].cycles
        for i in range(1, len(cpus)):
            if cpus[i].cycles < best_cycles:
                best, best_cycles = i, cpus[i].cycles
        return best

    def _idle(self, cpu: int) -> None:
        """Nothing runnable on an idle cpu: advance its clock or detect
        deadlock/termination."""
        clock = self.machine.cycles(cpu)
        busy = [
            self.machine.cycles(i)
            for i, t in enumerate(self._current)
            if t is not None
        ]
        targets = []
        if busy:
            targets.append(min(busy) + 1)
        heap = self.event_queue.heap
        if heap:
            targets.append(heap[0].time)
        if not targets and self.scheduler.has_runnable():
            # Runnable work exists that this cpu will not take (e.g. a
            # thread too hot to steal); skip ahead of the other cpus so the
            # thread's home cpu becomes the scheduling point and claims it
            # from its own heap.
            targets.append(max(p.cycles for p in self.machine.cpus) + 1)
        if targets:
            self.machine.cpus[cpu].cycles = max(clock + 1, min(targets))
            return
        blocked = [t for t in self.threads.values() if t.alive]
        if blocked:
            raise DeadlockError(blocked, cycle=find_wait_cycle(blocked))
        # _live said someone is alive but nobody is; internal inconsistency
        raise ThreadError("scheduler lost track of live threads")

    # -- dispatch / context switch --------------------------------------------

    def _dispatch(self, cpu: int) -> Optional[ActiveThread]:
        self.sched_epoch += 1
        thread, cost = self.scheduler.pick(cpu)
        self._charge(cpu, cost)
        if thread is None:
            return None
        if thread.state is not ThreadState.READY:
            raise ThreadError(f"scheduler picked non-ready {thread}")
        thread.state = ThreadState.RUNNING
        if thread.ready_at is not None:
            waited = max(0, self.machine.cycles(cpu) - thread.ready_at)
            thread.stats.wait_cycles += waited
            thread.stats.max_wait_cycles = max(
                thread.stats.max_wait_cycles, waited
            )
            thread.ready_at = None
        if thread.last_cpu is not None and thread.last_cpu != cpu:
            thread.stats.migrations += 1
        thread.last_cpu = cpu
        self._current[cpu] = thread
        self._charge(cpu, self.scheduler.thread_dispatched(cpu, thread))
        for observer in self._dispatch_observers:
            observer.on_dispatch(cpu, thread)
        return thread

    def _end_interval(
        self, cpu: int, thread: ActiveThread, finished: bool
    ) -> None:
        """The paper's context-switch protocol (counter read + O(d) updates
        + base switch cost)."""
        view = self._views[cpu]
        misses = view.interval_misses()
        if view.last_overflow_suspect:
            # a wrapped PIC must never be consumed unnoticed: tally it and
            # keep a bounded diagnostic trail for reports/tests
            self.counter_overflow_suspects += 1
            if len(self.counter_diagnostics) < _MAX_COUNTER_DIAGNOSTICS:
                self.counter_diagnostics.append(
                    f"cpu{cpu} interval for {thread.name}: "
                    f"{view.last_overflow_detail}"
                )
        self.machine.compute(cpu, view.read_cost_instructions)
        thread.stats.intervals += 1
        thread.stats.misses += misses
        self.sched_epoch += 1
        self._charge(
            cpu, self.scheduler.thread_blocked(cpu, thread, misses, finished)
        )
        self.machine.compute(
            cpu, self.machine.config.context_switch_instructions
        )
        self.context_switches += 1
        self._current[cpu] = None
        for observer in self._block_observers:
            observer.on_block(cpu, thread, misses, finished)

    def _finish(self, cpu: int, thread: ActiveThread) -> None:
        self._end_interval(cpu, thread, finished=True)
        thread.state = ThreadState.DONE
        self._live -= 1
        self.graph.remove_thread(thread.tid)
        for joiner in thread.joiners:
            self._wake(joiner)
        thread.joiners.clear()

    def _block(self, cpu: int, thread: ActiveThread) -> None:
        thread.state = ThreadState.BLOCKED
        if self.event_queue.log is not None:
            # blocks are synchronous; THREAD_BLOCK is an audit record in
            # the event log, never a scheduled future event
            self.event_queue.emit(
                self.machine.cycles(cpu),
                self._event_kinds.THREAD_BLOCK,
                thread.tid,
            )
        self._end_interval(cpu, thread, finished=False)

    def _wake(self, thread: ActiveThread) -> None:
        thread.pending_mutex = None
        thread.waiting_on = None
        thread.mark_ready()
        thread.ready_at = self.machine.time()
        self.sched_epoch += 1
        self._charge(self._stepping_cpu(), self.scheduler.thread_ready(thread))

    def _charge(self, cpu: Optional[int], instructions: int) -> None:
        if instructions and cpu is not None:
            self.machine.compute(cpu, instructions)

    def _stepping_cpu(self) -> Optional[int]:
        if self._stepping is None:
            return None
        return self._stepping.last_cpu

    # -- event interpretation ---------------------------------------------------

    def _step(self, cpu: int, thread: ActiveThread) -> None:
        if self.injector is not None:
            # May raise InjectedCrash; "delay" stalls the cpu clock only
            # (never the thread's own accounting), "livelock" pins the
            # thread in a yield spin without advancing its body.
            action = self.injector.before_step(cpu, thread)
            if action is not None:
                kind = action[0] if isinstance(action, tuple) else action
                if kind == "delay":
                    self.machine.compute(cpu, action[1])
                elif kind == "livelock":
                    thread.fault_livelocked = True
        if thread.fault_livelocked:
            self.events_executed += 1
            self._execute(cpu, thread, ev.Yield())
            return
        if self.controller is not None and self.controller.should_preempt(
            cpu, thread
        ):
            # Forced preemption: a synthetic Yield, exactly as if the body
            # had yielded one -- the thread goes READY and the scheduler
            # picks again.  The body generator is NOT advanced.
            self.events_executed += 1
            self._execute(cpu, thread, ev.Yield())
            return
        self._stepping = thread
        try:
            event = next(thread.body)
        except StopIteration:
            self._finish(cpu, thread)
            return
        finally:
            self._stepping = None
        self.events_executed += 1
        self._execute(cpu, thread, event)

    def _execute(self, cpu: int, thread: ActiveThread, event) -> None:
        cls = event.__class__
        sync_attrs = _SYNC_EVENT_ATTRS.get(cls)
        if sync_attrs is not None:
            for attr in sync_attrs:
                self.register_sync(getattr(event, attr))
        for observer in self._event_observers:
            observer.on_event(cpu, thread, event)
        handler = self._handlers.get(cls)
        if handler is None:
            handler = self._resolve_handler(cls)
            if handler is None:
                raise ThreadError(
                    f"{thread} yielded unknown event {event!r}"
                )
        handler(self, cpu, thread, event)

    def _resolve_handler(self, cls) -> Optional[Callable]:
        """Handler lookup for event *subclasses* (exact classes hit the
        dispatch table directly); the result is memoised."""
        for base, handler in _EVENT_HANDLERS:
            if issubclass(cls, base):
                self._handlers[cls] = getattr(type(self), handler)
                return self._handlers[cls]
        return None

    def _exec_touch(self, cpu: int, thread: ActiveThread, event) -> None:
        result = self.machine.touch(cpu, event.lines, write=event.write)
        thread.stats.refs += result.refs
        for observer in self._touch_observers:
            observer.on_touch(cpu, thread, event)

    def _exec_compute(self, cpu: int, thread: ActiveThread, event) -> None:
        self.machine.compute(cpu, event.instructions)
        thread.stats.instructions += event.instructions

    def _exec_acquire(self, cpu: int, thread: ActiveThread, event) -> None:
        self.machine.compute(cpu, SYNC_COST)
        if not event.mutex.acquire(thread):
            thread.waiting_on = event.mutex
            self._block(cpu, thread)

    def _exec_release(self, cpu: int, thread: ActiveThread, event) -> None:
        self.machine.compute(cpu, SYNC_COST)
        woken = event.mutex.release(thread)
        if woken is not None:
            self._stepping = thread  # charge wake bookkeeping here
            self._wake(woken)
            self._stepping = None

    def _exec_sem_wait(self, cpu: int, thread: ActiveThread, event) -> None:
        self.machine.compute(cpu, SYNC_COST)
        if not event.semaphore.wait(thread):
            thread.waiting_on = event.semaphore
            self._block(cpu, thread)

    def _exec_sem_post(self, cpu: int, thread: ActiveThread, event) -> None:
        self.machine.compute(cpu, SYNC_COST)
        woken = event.semaphore.post()
        if woken is not None:
            self._stepping = thread
            self._wake(woken)
            self._stepping = None

    def _exec_barrier_wait(
        self, cpu: int, thread: ActiveThread, event
    ) -> None:
        self.machine.compute(cpu, SYNC_COST)
        woken = event.barrier.arrive(thread)
        if woken is None:
            thread.waiting_on = event.barrier
            self._block(cpu, thread)
        else:
            self._stepping = thread
            for other in woken:
                self._wake(other)
            self._stepping = None

    def _exec_cond_wait(self, cpu: int, thread: ActiveThread, event) -> None:
        self.machine.compute(cpu, SYNC_COST)
        self._cond_wait(cpu, thread, event)

    def _exec_cond_signal(
        self, cpu: int, thread: ActiveThread, event
    ) -> None:
        self.machine.compute(cpu, SYNC_COST)
        self._stepping = thread
        waiter = event.condition.signal()
        if waiter is not None:
            self._cond_resume(waiter)
        self._stepping = None

    def _exec_cond_broadcast(
        self, cpu: int, thread: ActiveThread, event
    ) -> None:
        self.machine.compute(cpu, SYNC_COST)
        self._stepping = thread
        for waiter in event.condition.broadcast():
            self._cond_resume(waiter)
        self._stepping = None

    def _exec_join(self, cpu: int, thread: ActiveThread, event) -> None:
        self.machine.compute(cpu, SYNC_COST)
        target = self.threads.get(event.tid)
        if target is None:
            raise ThreadError(f"join on unknown tid {event.tid}")
        if target.alive:
            target.joiners.append(thread)
            thread.waiting_on = target
            self._block(cpu, thread)

    def _exec_yield(self, cpu: int, thread: ActiveThread, event) -> None:
        thread.mark_ready()
        thread.ready_at = self.machine.cycles(cpu)
        self._end_interval(cpu, thread, finished=False)
        self._stepping = thread
        self.sched_epoch += 1
        self._charge(cpu, self.scheduler.thread_ready(thread))
        self._stepping = None

    def _exec_sleep(self, cpu: int, thread: ActiveThread, event) -> None:
        thread.state = ThreadState.SLEEPING
        self._end_interval(cpu, thread, finished=False)
        # ready_seq rides along so the timer can only wake this very
        # sleep, never a later one
        self.event_queue.schedule(
            self.machine.cycles(cpu) + event.cycles,
            self._event_kinds.THREAD_WAKEUP,
            thread.tid,
            (thread, thread.ready_seq),
        )

    def _cond_wait(self, cpu: int, thread: ActiveThread, event: ev.CondWait) -> None:
        if event.mutex.owner is not thread:
            raise SyncError(
                f"{thread} waited on {event.condition.label} without holding "
                f"{event.mutex.label}"
            )
        new_owner = event.mutex.release(thread)
        event.condition.add_waiter(thread)
        thread.pending_mutex = event.mutex
        thread.waiting_on = event.condition
        if new_owner is not None:
            self._stepping = thread
            self._wake(new_owner)
            self._stepping = None
        self._block(cpu, thread)

    def _cond_resume(self, waiter: ActiveThread) -> None:
        """A signalled waiter must reacquire its mutex before running."""
        mutex = waiter.pending_mutex
        if mutex is None:
            raise SyncError(f"signalled {waiter} has no pending mutex")
        if mutex.acquire(waiter):
            self._wake(waiter)
        # else: the waiter sits in the mutex queue; Release will wake it.
