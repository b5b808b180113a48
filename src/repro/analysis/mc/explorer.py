"""Stateless-search DPOR exploration over the controlled runtime.

The explorer owns a persistent DFS path of :class:`ChoiceNode` objects
and repeatedly re-executes a fixture from scratch (stateless search):
each run replays the decisions recorded on the path and extends it with
defaults once it walks off the end.  After a run, dynamic partial-order
reduction inspects the trace -- for every pair of conflicting slices
executed by different threads, the earlier choice point gets the later
thread queued as a backtrack alternative -- and the path backtracks to
the deepest node with pending alternatives.  Interval-granularity sleep
sets (see :mod:`.controller`) additionally abandon provably redundant
runs, which are counted as *pruned* rather than explored.

With ``dpor=False`` the explorer queues every sibling at every choice
point instead: a plain exhaustive enumeration.  Tests use it as ground
truth -- on the small fixtures, DPOR must reach exactly the same set of
final signatures with (many) fewer runs.

Every completed run feeds three verdicts:

- the fixture's :meth:`~.fixtures.MCFixture.signature` must be
  bit-identical across all interleavings, and across annotation-chaos
  reruns (``MC003``);
- a deadlock is legal only if the static lock-order pass predicts a
  cycle *and* the runtime found an ownership cycle (else ``MC001``);
- property checkers report FIFO-handoff / barrier / priority-update
  violations (``MC002`` / ``MC004``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.locks import scan_workload_class
from repro.analysis.mc.controller import (
    PICK,
    PREEMPT,
    ChoiceNode,
    ControlledScheduler,
    DecisionCursor,
    DepthExceeded,
    PrunedRun,
    ScheduleController,
    TracePoint,
)
from repro.analysis.mc.fixtures import FIXTURES, MCFixture
from repro.analysis.mc.properties import PropertyChecker, default_checkers
from repro.machine.configs import SMALL
from repro.machine.smp import Machine
from repro.parallel import (
    ProgressFn,
    ResultCache,
    Shard,
    merged_values,
    run_shards,
)
from repro.threads.errors import DeadlockError, StepBudgetExceeded
from repro.threads.runtime import Runtime


@dataclass(frozen=True)
class MCBudget:
    """Bounds on one exploration (runs, events, decisions, preemptions)."""

    name: str
    #: executions (explored + pruned) before giving up
    max_runs: int
    #: per-run event cap (guards against livelocking fixtures)
    max_events_per_run: int
    #: per-run decision-depth cap
    max_decisions: int
    #: CHESS-style bound on *forced* preemptions per run; 0 explores all
    #: schedules reachable through blocking/yield boundaries only
    preemption_bound: int


SMALL_BUDGET = MCBudget("small", 4000, 5000, 400, 0)
FULL_BUDGET = MCBudget("full", 20000, 20000, 1000, 1)

BUDGETS: Dict[str, MCBudget] = {b.name: b for b in (SMALL_BUDGET, FULL_BUDGET)}


class AnnotationChaos:
    """A deterministic, schedule-independent bad-annotation injector.

    Rewrites every ``at_share`` edge into two wrong ones (inverted
    coefficient plus a fabricated reverse edge).  Because the rewrite
    depends only on the edge itself -- never on time, randomness, or
    scheduling history -- re-exploring under it keeps runs replayable,
    and the paper's claim requires the final signatures to match the
    clean exploration bit for bit.
    """

    def attach(self, runtime: Runtime) -> None:
        pass

    def wrap_view(self, cpu_id: int, view: Any) -> Any:
        return view

    def transform_share(
        self, src: int, dst: int, q: float
    ) -> List[Tuple[int, int, float]]:
        return [(src, dst, round(1.0 - q, 6)), (dst, src, 0.5)]

    def before_step(self, cpu: int, thread: Any) -> None:
        return None


@dataclass
class ExplorationResult:
    """Everything one exploration of one fixture established."""

    fixture: str
    mode: str  # "clean" or "chaos"
    dpor: bool
    preemption_bound: int
    runs: int = 0
    pruned: int = 0
    truncated: int = 0
    nodes: int = 0
    max_depth: int = 0
    #: the DFS tree was exhausted within budget with no truncated runs
    complete: bool = False
    #: distinct final signatures, sorted by repr
    signatures: List[Tuple[Any, ...]] = field(default_factory=list)
    #: (predicted, message) per distinct deadlock reached
    deadlocks: List[Tuple[bool, str]] = field(default_factory=list)
    #: deduplicated (code, message) checker violations
    violations: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.fixture}/{self.mode}"

    def diagnostics(self) -> List[Diagnostic]:
        source = f"mc({self.label})"
        found = [
            Diagnostic(code=code, message=message, source=source)
            for code, message in self.violations
        ]
        for predicted, message in self.deadlocks:
            if not predicted:
                found.append(
                    Diagnostic(code="MC001", message=message, source=source)
                )
        if len(self.signatures) > 1:
            shown = ", ".join(repr(s) for s in self.signatures[:3])
            found.append(
                Diagnostic(
                    code="MC003",
                    message=(
                        f"{len(self.signatures)} distinct final results "
                        f"across {self.runs} interleavings: {shown}"
                    ),
                    source=source,
                )
            )
        found.sort(key=lambda d: d.sort_key)
        return found


def _dpor_update(trace: List[TracePoint]) -> None:
    """Queue backtrack alternatives for every conflicting slice pair.

    Conservative Flanagan--Godefroid: rather than only the *last*
    dependent transition, every earlier choice point whose slice
    conflicts with a later thread's slice gets that thread queued (or,
    if it was not enabled there, all enabled siblings).  Over-queueing
    costs runs, never coverage.
    """
    for j, pj in enumerate(trace):
        if pj.tid is None:
            continue
        for i in range(j):
            pi = trace[i]
            node = pi.node
            if node is None or pi.tid is None or pi.tid == pj.tid:
                continue
            if not pi.slice.conflicts(pj.slice):
                continue
            if node.kind == PICK:
                if pj.tid in node.enabled:
                    node.queue(pj.tid)
                else:
                    for tid in node.enabled:
                        node.queue(tid)
            elif node.kind == PREEMPT:
                node.queue(True)


def _backtrack(path: List[ChoiceNode]) -> bool:
    """Advance the deepest node with pending alternatives; pop the rest.

    Returns False when the whole tree is exhausted.
    """
    while path:
        node = path[-1]
        node.explored[node.taken] = node.last_slice
        if node.todo:
            node.taken = node.todo.pop(0)
            node.last_slice = None
            return True
        path.pop()
    return False


#: builds a fresh workload instance for each re-execution
FixtureFactory = Callable[[], MCFixture]


def explore(
    factory: FixtureFactory,
    budget: MCBudget = SMALL_BUDGET,
    *,
    dpor: bool = True,
    mode: str = "clean",
    fixture_name: Optional[str] = None,
    checkers_factory: Callable[[], Sequence[PropertyChecker]] = default_checkers,
    injector_factory: Optional[Callable[[], Any]] = None,
    predicted_cycles: Optional[bool] = None,
) -> ExplorationResult:
    """Exhaustively explore one fixture's interleavings within budget."""
    probe = factory()
    name = fixture_name or probe.name
    if predicted_cycles is None:
        graph, _rel = scan_workload_class(type(probe))
        predicted_cycles = bool(graph.cycles())

    result = ExplorationResult(
        fixture=name,
        mode=mode,
        dpor=dpor,
        preemption_bound=budget.preemption_bound,
    )
    path: List[ChoiceNode] = []
    signatures: Dict[str, Tuple[Any, ...]] = {}
    deadlocks: Set[Tuple[bool, str]] = set()
    violations: Set[Tuple[str, str]] = set()

    while result.runs + result.pruned < budget.max_runs:
        prefix_len = len(path)
        workload = factory()
        machine = Machine(SMALL.with_cpus(1), seed=0)
        controller = ScheduleController(
            DecisionCursor(path, dpor),
            checkers=checkers_factory(),
            preemption_bound=budget.preemption_bound,
            max_decisions=budget.max_decisions,
        )
        scheduler = ControlledScheduler(controller)
        injector = injector_factory() if injector_factory is not None else None
        runtime = Runtime(
            machine, scheduler, injector=injector, controller=controller
        )
        runtime.add_observer(controller)
        workload.build(runtime)

        outcome = "ok"
        deadlock: Optional[DeadlockError] = None
        try:
            runtime.run(max_events=budget.max_events_per_run)
        except PrunedRun:
            outcome = "pruned"
        except DeadlockError as exc:
            outcome = "deadlock"
            deadlock = exc
        except (StepBudgetExceeded, DepthExceeded):
            outcome = "truncated"
        controller.finalize()
        violations.update(controller.violations)
        result.nodes += len(path) - prefix_len
        result.max_depth = max(result.max_depth, len(controller.trace))

        if outcome == "pruned":
            result.pruned += 1
        else:
            result.runs += 1
            if outcome == "ok":
                sig = workload.signature()
                signatures.setdefault(repr(sig), sig)
            elif outcome == "deadlock":
                assert deadlock is not None
                predicted = predicted_cycles and deadlock.cycle is not None
                deadlocks.add((bool(predicted), str(deadlock)))
            else:
                result.truncated += 1
            if dpor:
                _dpor_update(controller.trace)

        if not _backtrack(path):
            result.complete = result.truncated == 0
            break

    result.signatures = [signatures[key] for key in sorted(signatures)]
    result.deadlocks = sorted(deadlocks)
    result.violations = sorted(violations)
    return result


def explore_fixture(
    name: str,
    budget: MCBudget = SMALL_BUDGET,
    *,
    dpor: bool = True,
    chaos: bool = True,
    registry: Optional[Dict[str, FixtureFactory]] = None,
) -> Tuple[List[ExplorationResult], List[Diagnostic]]:
    """Explore one registered fixture clean and (optionally) under
    annotation chaos; cross-check the two signature sets."""
    table = registry if registry is not None else FIXTURES
    if name not in table:
        raise KeyError(
            f"unknown mc fixture {name!r}; known: {sorted(table)}"
        )
    factory = table[name]
    results = [explore(factory, budget, dpor=dpor, fixture_name=name)]
    if chaos:
        results.append(
            explore(
                factory,
                budget,
                dpor=dpor,
                mode="chaos",
                fixture_name=name,
                injector_factory=AnnotationChaos,
            )
        )
    diagnostics: List[Diagnostic] = []
    for result in results:
        diagnostics.extend(result.diagnostics())
    if chaos and results[0].signatures != results[1].signatures:
        diagnostics.append(
            Diagnostic(
                code="MC003",
                message=(
                    "bad annotations changed the reachable results: "
                    f"clean={results[0].signatures!r} vs "
                    f"chaos={results[1].signatures!r}"
                ),
                source=f"mc({name})",
            )
        )
    diagnostics.sort(key=lambda d: d.sort_key)
    return results, diagnostics


def _fixture_shard(
    name: str, budget: MCBudget, dpor: bool, chaos: bool
) -> Tuple[List[ExplorationResult], List[Diagnostic]]:
    """Worker entry point: one registered fixture, clean + chaos."""
    return explore_fixture(name, budget, dpor=dpor, chaos=chaos)


def explore_all(
    budget: MCBudget = SMALL_BUDGET,
    *,
    fixtures: Optional[Sequence[str]] = None,
    dpor: bool = True,
    chaos: bool = True,
    jobs: int = 1,
    progress: Optional[ProgressFn] = None,
    cache: Optional[ResultCache] = None,
) -> Tuple[List[ExplorationResult], List[Diagnostic]]:
    """Explore every (or the named) registered fixture.

    Each fixture's exploration is an independent pure function of
    (fixture name, budget, dpor, chaos), so with ``jobs > 1`` fixtures
    run on a :mod:`repro.parallel` process pool; the merge re-sorts by
    fixture order and the final report is bit-identical to ``jobs=1``.
    ``cache`` skips fixtures whose fingerprinted exploration is already
    on disk (docs/PARALLEL.md) -- it cannot change the report.
    """
    names = list(fixtures) if fixtures else sorted(FIXTURES)
    shards = [
        Shard(
            index=i,
            key=f"mc/{name}",
            fn="repro.analysis.mc.explorer:_fixture_shard",
            params={
                "name": name, "budget": budget, "dpor": dpor, "chaos": chaos,
            },
        )
        for i, name in enumerate(names)
    ]
    outcomes = run_shards(shards, jobs=jobs, progress=progress, cache=cache)
    results: List[ExplorationResult] = []
    diagnostics: List[Diagnostic] = []
    for sub_results, sub_diags in merged_values(outcomes):
        results.extend(sub_results)
        diagnostics.extend(sub_diags)
    diagnostics.sort(key=lambda d: d.sort_key)
    return results, diagnostics
