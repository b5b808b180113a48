"""Happens-before race sanitizer over the simulated event stream.

Threads in this runtime share one address space; a *race* is a pair of
accesses to the same cache line, at least one a write, by two threads
with no happens-before ordering between them.  Races cannot corrupt this
simulator (touches are atomic events), but in the program being modelled
they are exactly the accesses whose outcome depends on the schedule --
and they are invisible to the fault campaign, which only perturbs hints.

Classic vector-clock construction (FastTrack-style epochs):

- each thread carries a vector clock, incremented at every release-like
  operation;
- sync edges join clocks: mutex release -> (next) acquire, including the
  runtime's direct handoff; semaphore post -> wait (posts accumulate in
  a per-semaphore pool); barrier: the last arrival joins every party;
  condition signal/broadcast -> the woken waiters; ``at_create`` parent
  -> child (via the runtime's ``on_create`` hook); thread finish -> join.
- per line, the last write is kept as an epoch ``(tid, clock)`` plus a
  read map; a touch that is concurrent with the stored epoch under the
  toucher's clock is a race.

Races are aggregated per (region, thread pair) -- one ``RS001`` with a
line count, not one per line, so a false-sharing pattern over a row
reads as one finding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.threads import events as ev

Clock = Dict[int, int]


def _join(into: Clock, other: Clock) -> None:
    for tid, tick in other.items():
        if into.get(tid, 0) < tick:
            into[tid] = tick


class RaceSanitizer:
    """Observer flagging unsynchronized conflicting line accesses."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self._clocks: Dict[int, Clock] = {}
        #: mutex id -> clock at last release
        self._mutex_release: Dict[int, Clock] = {}
        #: semaphore id -> accumulated post clock pool
        self._sem_pool: Dict[int, Clock] = {}
        #: barrier id -> accumulated arrival clock pool
        self._barrier_pool: Dict[int, Clock] = {}
        #: tid -> final clock at finish (for late joins)
        self._final: Dict[int, Clock] = {}
        #: line -> (writer tid, writer clock tick)
        self._write_epoch: Dict[int, Tuple[int, int]] = {}
        #: line -> {reader tid -> clock tick}
        self._read_epochs: Dict[int, Dict[int, int]] = {}
        #: (name_a, name_b, kind) -> raced lines
        self._races: Dict[Tuple[str, str, str], Set[int]] = {}
        runtime.add_observer(self)

    # -- clock plumbing ----------------------------------------------------

    def _clock(self, tid: int) -> Clock:
        clock = self._clocks.get(tid)
        if clock is None:
            clock = {tid: 1}
            self._clocks[tid] = clock
        return clock

    def _tick(self, tid: int) -> None:
        clock = self._clock(tid)
        clock[tid] = clock.get(tid, 0) + 1

    # -- observer hooks ----------------------------------------------------

    def on_create(self, parent, thread) -> None:
        child = self._clock(thread.tid)
        if parent is not None:
            _join(child, self._clock(parent.tid))
            self._tick(parent.tid)

    def on_event(self, cpu, thread, event) -> None:
        tid = thread.tid
        clock = self._clock(tid)
        if isinstance(event, ev.Acquire):
            if event.mutex.owner is None:
                released = self._mutex_release.get(id(event.mutex))
                if released is not None:
                    _join(clock, released)
            # else: ordered at handoff time, inside the Release branch
        elif isinstance(event, ev.Release):
            self._mutex_release[id(event.mutex)] = dict(clock)
            self._tick(tid)
            waiters = getattr(event.mutex, "_waiters", None)
            if waiters:
                _join(self._clock(waiters[0].tid), clock)
        elif isinstance(event, ev.SemPost):
            waiters = getattr(event.semaphore, "_waiters", None)
            if waiters:
                _join(self._clock(waiters[0].tid), clock)
            else:
                pool = self._sem_pool.setdefault(id(event.semaphore), {})
                _join(pool, clock)
            self._tick(tid)
        elif isinstance(event, ev.SemWait):
            if event.semaphore.count > 0:
                pool = self._sem_pool.get(id(event.semaphore))
                if pool is not None:
                    _join(clock, pool)
        elif isinstance(event, ev.BarrierWait):
            pool = self._barrier_pool.setdefault(id(event.barrier), {})
            _join(pool, clock)
            if event.barrier.waiting + 1 >= event.barrier.parties:
                for waiter in event.barrier._waiters:
                    _join(self._clock(waiter.tid), pool)
                _join(clock, pool)
                del self._barrier_pool[id(event.barrier)]
            self._tick(tid)
        elif isinstance(event, ev.CondWait):
            # atomically releases the mutex: same edges as Release
            self._mutex_release[id(event.mutex)] = dict(clock)
            self._tick(tid)
            waiters = getattr(event.mutex, "_waiters", None)
            if waiters:
                _join(self._clock(waiters[0].tid), clock)
        elif isinstance(event, (ev.CondSignal, ev.CondBroadcast)):
            woken = list(getattr(event.condition, "_waiters", ()))
            if isinstance(event, ev.CondSignal):
                woken = woken[:1]
            for waiter in woken:
                _join(self._clock(waiter.tid), clock)
            self._tick(tid)
        elif isinstance(event, ev.Join):
            final = self._final.get(event.tid)
            if final is not None:
                _join(clock, final)

    def on_block(self, cpu, thread, misses, finished) -> None:
        if finished:
            clock = self._clock(thread.tid)
            self._final[thread.tid] = dict(clock)
            # joiners are still queued here; _finish wakes them after
            for joiner in thread.joiners:
                _join(self._clock(joiner.tid), clock)

    def on_touch(self, cpu, thread, touch) -> None:
        tid = thread.tid
        clock = self._clock(tid)
        write = touch.write
        own_tick = clock.get(tid, 0)
        for line in touch.lines.tolist():
            epoch = self._write_epoch.get(line)
            if epoch is not None and epoch[0] != tid:
                writer, tick = epoch
                if tick > clock.get(writer, 0):
                    kind = "write-write" if write else "write-read"
                    self._record(writer, tid, kind, line)
            if write:
                readers = self._read_epochs.get(line)
                if readers:
                    for reader, tick in readers.items():
                        if reader != tid and tick > clock.get(reader, 0):
                            self._record(reader, tid, "read-write", line)
                    readers.clear()
                self._write_epoch[line] = (tid, own_tick)
            else:
                self._read_epochs.setdefault(line, {})[tid] = own_tick

    # -- reporting ---------------------------------------------------------

    def _record(self, tid_a: int, tid_b: int, kind: str, line: int) -> None:
        name_a = self._thread_name(tid_a)
        name_b = self._thread_name(tid_b)
        if name_b < name_a:
            name_a, name_b = name_b, name_a
        self._races.setdefault((name_a, name_b, kind), set()).add(line)

    def _thread_name(self, tid: int) -> str:
        thread = self.runtime.threads.get(tid)
        return thread.name if thread is not None else f"tid-{tid}"

    def _region_of(self, line: int) -> str:
        for region in self.runtime.machine.address_space.regions():
            if region.first_line <= line <= region.last_line:
                return region.name
        return "?"

    def diagnose(self, source: str) -> List[Diagnostic]:
        found: List[Diagnostic] = []
        merged: Dict[Tuple[str, str, str, str], Set[int]] = {}
        for (name_a, name_b, kind), lines in self._races.items():
            by_region: Dict[str, Set[int]] = {}
            for line in lines:
                by_region.setdefault(self._region_of(line), set()).add(line)
            for region, region_lines in by_region.items():
                merged.setdefault(
                    (region, name_a, name_b, kind), set()
                ).update(region_lines)
        for (region, name_a, name_b, kind) in sorted(merged):
            lines = merged[(region, name_a, name_b, kind)]
            found.append(
                Diagnostic(
                    code="RS001",
                    message=(
                        f"{kind} race between {name_a} and {name_b} on "
                        f"{len(lines)} line(s) of region {region} "
                        f"(no happens-before ordering)"
                    ),
                    source=source,
                )
            )
        return found
