"""Choice-point plumbing for the schedule model checker.

The deterministic runtime has exactly two sources of scheduling freedom
on a uniprocessor:

- which READY thread the scheduler picks at a dispatch point, and
- whether a running thread is forcibly preempted between two of its
  events (the ``controller`` hook in :class:`repro.threads.runtime.
  Runtime`).

:class:`ControlledScheduler` + :class:`ScheduleController` turn both
into explicit, replayable *decisions*.  A run is driven by a
:class:`DecisionCursor` over a persistent path of :class:`ChoiceNode`
objects owned by the explorer: decisions inside the path are replayed
bit-identically (stateless re-execution, VeriSoft-style); decisions past
the end take a default and grow the path.  Every decision also closes a
:class:`SliceFootprint` -- the read/write/sync footprint of the events
executed since the previous decision -- which is what the explorer's
dynamic partial-order reduction uses to tell commuting schedules apart.

Sleep sets work at scheduling-interval granularity and are sound here
because thread bodies are deterministic generators: when choice ``x``
was already fully explored at a node, any sibling schedule may keep
``x`` asleep until some executed slice *conflicts* with the slice ``x``
performed from that very same state -- nothing else can change what
``x`` would do.  Scheduling a sleeping thread is provably redundant, so
the run is abandoned with :class:`PrunedRun` and counted as pruned.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sched.base import Scheduler
from repro.threads import events as ev
from repro.threads.thread import ActiveThread, ThreadState

#: decision kinds
PICK = "pick"
PREEMPT = "preempt"


class PrunedRun(Exception):
    """The current execution is redundant (sleep-set hit); abandon it."""


class DepthExceeded(Exception):
    """The run exceeded the decision-depth budget."""


class ExplorationError(Exception):
    """Replay divergence: the runtime did not re-execute deterministically
    under an identical decision prefix.  Always a bug, never a finding."""


class SliceFootprint:
    """What one scheduling slice touched: sync objects, thread-lifecycle
    tokens, and read/written cache lines.  Two slices *conflict* when
    reordering them could matter."""

    __slots__ = ("tokens", "reads", "writes")

    def __init__(self) -> None:
        self.tokens: Set[Tuple[str, object]] = set()
        self.reads: Set[int] = set()
        self.writes: Set[int] = set()

    def add_sync(self, name: object) -> None:
        self.tokens.add(("s", name))

    def add_thread(self, tid: int) -> None:
        self.tokens.add(("t", tid))

    def add_lines(self, lines: Sequence[int], write: bool) -> None:
        target = self.writes if write else self.reads
        target.update(int(line) for line in lines)

    def conflicts(self, other: "SliceFootprint") -> bool:
        if self.tokens & other.tokens:
            return True
        if self.writes & (other.reads | other.writes):
            return True
        if other.writes & self.reads:
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"SliceFootprint(tokens={sorted(map(repr, self.tokens))}, "
            f"r={len(self.reads)}, w={len(self.writes)})"
        )


class ChoiceNode:
    """One persistent choice point in the explorer's DFS path."""

    __slots__ = ("kind", "enabled", "taken", "todo", "explored", "last_slice")

    def __init__(
        self,
        kind: str,
        enabled: Tuple[int, ...],
        taken: object,
        todo: Optional[List[object]] = None,
    ) -> None:
        self.kind = kind
        self.enabled = enabled
        #: the choice the current run takes here
        self.taken: object = taken
        #: alternatives queued for later runs (DPOR backtrack set)
        self.todo: List[object] = list(todo or ())
        #: fully explored choices -> the slice each performed (or None if
        #: pruned before executing); feeds sibling sleep sets
        self.explored: Dict[object, Optional[SliceFootprint]] = {}
        #: slice performed by ``taken`` in the most recent run through here
        self.last_slice: Optional[SliceFootprint] = None

    def queue(self, choice: object) -> bool:
        """Add a backtrack alternative; returns True if newly queued."""
        if choice == self.taken or choice in self.explored or choice in self.todo:
            return False
        self.todo.append(choice)
        return True

    def __repr__(self) -> str:
        return (
            f"ChoiceNode({self.kind}, enabled={self.enabled}, "
            f"taken={self.taken!r}, todo={self.todo!r})"
        )


class TracePoint:
    """One decision of one run, plus the slice that followed it."""

    __slots__ = ("kind", "enabled", "chosen", "tid", "node", "slice")

    def __init__(
        self,
        kind: str,
        enabled: Tuple[int, ...],
        chosen: object,
        tid: Optional[int],
        node: Optional[ChoiceNode],
    ) -> None:
        self.kind = kind
        self.enabled = enabled
        self.chosen = chosen
        #: thread executing the slice that follows this decision (None
        #: for a taken preemption, whose slice is empty)
        self.tid = tid
        #: the persistent node (None for forced/singleton picks)
        self.node = node
        self.slice = SliceFootprint()


class DecisionCursor:
    """Replays a decision path and extends it with defaults.

    Owned per run; ``path`` is the explorer's persistent DFS spine, which
    the cursor appends new nodes to as the run ventures past it.
    """

    def __init__(self, path: List[ChoiceNode], dpor: bool) -> None:
        self.path = path
        self.pos = 0
        #: sleep sets only operate in DPOR mode; exhaustive mode queues
        #: every sibling instead
        self.use_sleep = dpor
        self.dpor = dpor

    def decide_pick(
        self, tids: Tuple[int, ...], sleep: Dict[int, SliceFootprint]
    ) -> Tuple[int, Optional[ChoiceNode]]:
        if self.use_sleep and all(t in sleep for t in tids):
            raise PrunedRun(f"all of {tids} asleep")
        if len(tids) == 1:
            return tids[0], None
        if self.pos < len(self.path):
            node = self.path[self.pos]
            self.pos += 1
            if node.kind != PICK or node.enabled != tids:
                raise ExplorationError(
                    f"replay divergence: expected {node!r}, runtime "
                    f"offered pick among {tids}"
                )
            taken = node.taken
            assert isinstance(taken, int)
            if self.use_sleep and taken in sleep:
                raise PrunedRun(f"replayed choice {taken} asleep")
            if self.use_sleep:
                for sibling, sl in node.explored.items():
                    if sibling != taken and sl is not None:
                        assert isinstance(sibling, int)
                        sleep.setdefault(sibling, sl)
            return taken, node
        awake = [t for t in tids if not (self.use_sleep and t in sleep)]
        taken = awake[0]
        todo: List[object] = [] if self.dpor else [t for t in tids if t != taken]
        node = ChoiceNode(PICK, tids, taken, todo)
        self.path.append(node)
        self.pos += 1
        return taken, node

    def decide_preempt(self) -> Tuple[bool, ChoiceNode]:
        if self.pos < len(self.path):
            node = self.path[self.pos]
            self.pos += 1
            if node.kind != PREEMPT:
                raise ExplorationError(
                    f"replay divergence: expected {node!r}, runtime "
                    "offered a preemption point"
                )
            taken = node.taken
            assert isinstance(taken, bool)
            return taken, node
        todo = [] if self.dpor else [True]
        node = ChoiceNode(PREEMPT, (), False, todo)
        self.path.append(node)
        self.pos += 1
        return False, node


class ScheduleController:
    """Runtime observer + ``controller`` hook recording one run's trace.

    Attach with ``Runtime(..., controller=controller)`` followed by
    ``runtime.add_observer(controller)``: the runtime consults
    :meth:`should_preempt` before every body step, while the observer
    hooks accumulate slice footprints and forward to property checkers.
    """

    def __init__(
        self,
        cursor: DecisionCursor,
        checkers: Sequence[object] = (),
        preemption_bound: int = 0,
        max_decisions: int = 1000,
    ) -> None:
        self.cursor = cursor
        self.checkers = list(checkers)
        self.preemption_bound = preemption_bound
        self.max_decisions = max_decisions
        self.trace: List[TracePoint] = []
        self.sleep: Dict[int, SliceFootprint] = {}
        self.preemptions = 0
        self.decisions = 0
        self.runtime = None
        self.scheduler: Optional["ControlledScheduler"] = None
        #: events executed in the current scheduling interval
        self._events_in_interval = 0
        #: accumulates events seen before the first decision (workload
        #: build-time creations); never participates in the analysis
        self._root_slice = SliceFootprint()

    # -- wiring ------------------------------------------------------------

    def bind(self, runtime, scheduler: "ControlledScheduler") -> None:
        self.runtime = runtime
        self.scheduler = scheduler
        for checker in self.checkers:
            checker.bind(runtime)

    @property
    def violations(self) -> List[Tuple[str, str]]:
        found: List[Tuple[str, str]] = []
        for checker in self.checkers:
            found.extend(checker.violations)
        return found

    def finalize(self) -> None:
        """Close the last slice and flush deferred checker assertions."""
        self._close_slice()
        for checker in self.checkers:
            checker.finish()

    # -- decision points ----------------------------------------------------

    def _open_slice(self) -> SliceFootprint:
        if self.trace:
            return self.trace[-1].slice
        return self._root_slice

    def _close_slice(self) -> None:
        """Apply the sleep-set wake rule for the slice just completed."""
        if not self.trace:
            return
        point = self.trace[-1]
        if point.node is not None:
            point.node.last_slice = point.slice
        if not self.sleep:
            return
        for tid in [t for t, fp in self.sleep.items() if point.slice.conflicts(fp)]:
            del self.sleep[tid]

    def _bump_decisions(self) -> None:
        self.decisions += 1
        if self.decisions > self.max_decisions:
            raise DepthExceeded(f"exceeded {self.max_decisions} decisions")

    def choose_pick(self, enabled: List[ActiveThread]) -> ActiveThread:
        """Called by :class:`ControlledScheduler` with the READY threads
        in canonical (tid) order; returns the thread to dispatch."""
        self._bump_decisions()
        self._close_slice()
        tids = tuple(t.tid for t in enabled)
        taken, node = self.cursor.decide_pick(tids, self.sleep)
        self.trace.append(TracePoint(PICK, tids, taken, taken, node))
        for thread in enabled:
            if thread.tid == taken:
                return thread
        raise ExplorationError(f"pick chose {taken}, not among {tids}")

    def should_preempt(self, cpu: int, thread: ActiveThread) -> bool:
        """The runtime's ``controller`` hook: preempt before this step?

        Only a real choice point mid-interval, under the preemption
        budget, with somewhere else for the cpu to go; anything less is
        either covered by the pick choice or a pointless reschedule.
        """
        if self.preemptions >= self.preemption_bound:
            return False
        if self._events_in_interval == 0:
            return False
        assert self.scheduler is not None
        if not self.scheduler.other_runnable(thread):
            return False
        self._bump_decisions()
        self._close_slice()
        taken, node = self.cursor.decide_preempt()
        owner = None if taken else thread.tid
        self.trace.append(TracePoint(PREEMPT, (), taken, owner, node))
        if taken:
            self.preemptions += 1
        return taken

    # -- Observer hooks ------------------------------------------------------

    def on_dispatch(self, cpu: int, thread: ActiveThread) -> None:
        self._events_in_interval = 0
        for checker in self.checkers:
            checker.on_dispatched(cpu, thread)

    def on_event(self, cpu: int, thread: ActiveThread, event) -> None:
        for checker in self.checkers:
            checker.on_event(cpu, thread, event)
        self._events_in_interval += 1
        fp = self._open_slice()
        if isinstance(event, (ev.Acquire, ev.Release)):
            fp.add_sync(event.mutex.name)
        elif isinstance(event, (ev.SemWait, ev.SemPost)):
            fp.add_sync(event.semaphore.name)
        elif isinstance(event, ev.BarrierWait):
            fp.add_sync(event.barrier.name)
        elif isinstance(event, ev.CondWait):
            fp.add_sync(event.condition.name)
            fp.add_sync(event.mutex.name)
        elif isinstance(event, (ev.CondSignal, ev.CondBroadcast)):
            fp.add_sync(event.condition.name)
        elif isinstance(event, ev.Join):
            fp.add_thread(event.tid)
        elif isinstance(event, ev.Touch):
            fp.add_lines(event.lines, event.write)

    def on_block(
        self, cpu: int, thread: ActiveThread, misses: int, finished: bool
    ) -> None:
        if finished:
            # a thread's completion is what join / create order against
            self._open_slice().add_thread(thread.tid)
        for checker in self.checkers:
            checker.on_interval_end(cpu, thread, misses, finished)

    def on_create(
        self, parent: Optional[ActiveThread], thread: ActiveThread
    ) -> None:
        self._open_slice().add_thread(thread.tid)


class ControlledScheduler(Scheduler):
    """A zero-cost scheduler that delegates every pick to the controller.

    The enabled set presented at each pick is the READY threads sorted by
    tid -- a canonical, replayable order -- so the controller's decisions
    are the *only* nondeterminism in an exploration run.
    """

    name = "mc"

    def __init__(self, controller: ScheduleController) -> None:
        self.controller = controller
        self.runtime = None
        self._ready: Dict[int, Tuple[ActiveThread, int]] = {}

    def attach(self, runtime) -> None:
        self.runtime = runtime
        self.controller.bind(runtime, self)

    def thread_ready(self, thread: ActiveThread) -> int:
        self._ready[thread.tid] = (thread, thread.ready_seq)
        return 0

    def thread_dispatched(self, cpu: int, thread: ActiveThread) -> int:
        return 0

    def thread_blocked(
        self, cpu: int, thread: ActiveThread, misses: int, finished: bool
    ) -> int:
        return 0

    def _enabled(self) -> List[ActiveThread]:
        stale = []
        enabled = []
        for tid in sorted(self._ready):
            thread, seq = self._ready[tid]
            if thread.state is ThreadState.READY and thread.ready_seq == seq:
                enabled.append(thread)
            else:
                stale.append(tid)
        for tid in stale:
            del self._ready[tid]
        return enabled

    def other_runnable(self, thread: ActiveThread) -> bool:
        return any(t.tid != thread.tid for t in self._enabled())

    def pick(self, cpu: int) -> Tuple[Optional[ActiveThread], int]:
        enabled = self._enabled()
        if not enabled:
            return None, 0
        chosen = self.controller.choose_pick(enabled)
        del self._ready[chosen.tid]
        return chosen, 0

    def has_runnable(self) -> bool:
        return bool(self._enabled())
