"""Runtime invariant checking: the referee of the fault campaign.

An :class:`InvariantChecker` is a runtime :class:`~repro.threads.runtime.
Observer` that validates, at every step, the invariants that *must* hold
no matter how corrupted the hint inputs are:

- thread-state transitions: a dispatched thread is RUNNING on exactly one
  cpu; an ended interval leaves the cpu slot empty; a finished interval
  ends a RUNNING thread;
- thread-table consistency: the runtime's live count matches the table,
  every BLOCKED thread records what it waits on;
- mutex ownership: an owner is alive and never queued behind its own
  lock; queued waiters are BLOCKED;
- LFF/CRT heap-priority invariants, via
  :meth:`repro.sched.heap.PriorityHeap.validate`.

Any breach raises :class:`~repro.threads.errors.InvariantViolation` --
which a correct runtime never does, faults or no faults.  The light
per-event checks are O(cpus); the full table/heap sweep runs every
``deep_every`` events (1 = every step).
"""

from __future__ import annotations

import weakref

from repro.threads.errors import InvariantViolation
from repro.threads.runtime import Observer
from repro.threads.thread import ActiveThread, ThreadState


class InvariantChecker(Observer):
    """Validates runtime/scheduler invariants as a measurement observer."""

    def __init__(self, runtime, deep_every: int = 32) -> None:
        #: a weak proxy: the runtime holds its observers, so a strong
        #: reference back would keep a finished run alive until a
        #: cyclic collection
        self.runtime = weakref.proxy(runtime)
        #: period (in events) of the full table/mutex/heap sweep
        self.deep_every = max(1, deep_every)
        self._mutexes: dict = {}  # id -> mutex, discovered from events
        self._events_seen = 0
        self.checks = 0
        self.deep_checks = 0

    # -- observer hooks ------------------------------------------------------

    def on_dispatch(self, cpu: int, thread: ActiveThread) -> None:
        self.checks += 1
        if thread.state is not ThreadState.RUNNING:
            raise InvariantViolation(
                f"dispatched {thread} is {thread.state.value}, not running"
            )
        current = self.runtime._current
        if current[cpu] is not thread:
            raise InvariantViolation(
                f"{thread} dispatched on cpu {cpu} but not current there"
            )
        for other, occupant in enumerate(current):
            if other != cpu and occupant is thread:
                raise InvariantViolation(
                    f"{thread} current on cpus {cpu} and {other} at once"
                )
        if self.runtime.threads.get(thread.tid) is not thread:
            raise InvariantViolation(
                f"dispatched {thread} missing from the thread table"
            )

    def on_block(
        self, cpu: int, thread: ActiveThread, misses: int, finished: bool
    ) -> None:
        self.checks += 1
        if self.runtime._current[cpu] is not None:
            raise InvariantViolation(
                f"cpu {cpu} still occupied after {thread}'s interval ended"
            )
        if finished and thread.state is not ThreadState.RUNNING:
            raise InvariantViolation(
                f"finished {thread} was {thread.state.value}, not running"
            )
        if not finished and thread.state not in (
            ThreadState.BLOCKED,
            ThreadState.READY,
            ThreadState.SLEEPING,
        ):
            raise InvariantViolation(
                f"{thread} ended an interval in state {thread.state.value}"
            )

    def on_event(self, cpu: int, thread: ActiveThread, event) -> None:
        mutex = getattr(event, "mutex", None)
        if mutex is not None:
            self._mutexes[id(mutex)] = mutex
        self._events_seen += 1
        if self._events_seen % self.deep_every == 0:
            self.deep_check()

    # -- the full sweep ------------------------------------------------------

    def deep_check(self) -> None:
        """Validate the whole thread table, known mutexes, and scheduler
        heaps at a consistent point."""
        self.deep_checks += 1
        runtime = self.runtime
        alive = sum(1 for t in runtime.threads.values() if t.alive)
        if alive != runtime._live:
            raise InvariantViolation(
                f"live-count drift: table has {alive}, runtime says "
                f"{runtime._live}"
            )
        seen_running: dict = {}
        for cpu, occupant in enumerate(runtime._current):
            if occupant is None:
                continue
            if occupant.state is not ThreadState.RUNNING:
                raise InvariantViolation(
                    f"cpu {cpu} runs {occupant} in state "
                    f"{occupant.state.value}"
                )
            if id(occupant) in seen_running:
                raise InvariantViolation(
                    f"{occupant} current on two cpus at once"
                )
            seen_running[id(occupant)] = cpu
        for t in runtime.threads.values():
            if t.state is ThreadState.RUNNING and id(t) not in seen_running:
                raise InvariantViolation(f"running {t} is on no cpu")
            if t.state is ThreadState.BLOCKED and t.waiting_on is None:
                raise InvariantViolation(
                    f"blocked {t} waits on nothing recorded"
                )
        for mutex in self._mutexes.values():
            self._check_mutex(mutex)
        for heap in getattr(runtime.scheduler, "heaps", []):
            heap.validate()

    def _check_mutex(self, mutex) -> None:
        owner = mutex.owner
        if owner is not None and not owner.alive:
            raise InvariantViolation(
                f"{mutex.name} owned by finished {owner}"
            )
        for waiter in mutex._waiters:
            if waiter is owner:
                raise InvariantViolation(
                    f"{owner} waits on {mutex.name} it already owns"
                )
            if waiter.state is not ThreadState.BLOCKED:
                raise InvariantViolation(
                    f"{waiter} queued on {mutex.name} while "
                    f"{waiter.state.value}"
                )
