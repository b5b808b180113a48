"""Lock-order analysis: find wait-for cycles before the runtime does.

PR 1's runtime detects deadlock *after* the fact -- every cpu idle, a
wait-for cycle among blocked threads, a :class:`~repro.threads.errors.
DeadlockError` naming the chain.  This pass finds the same cycles ahead
of time, from two independent sources:

- **static**: a document-order scan of each workload's generator source,
  tracking which mutexes are symbolically held across ``yield Acquire``/
  ``yield Release`` statements.  Classic linter approximation: branches
  are scanned in order, aliasing is by expression text.  Anchored to
  exact ``file:line``.
- **dynamic**: a runtime observer tracking the held-set per thread
  through the real event stream, so orders reached only at run time
  (data-dependent lock choices) are caught too.

Both feed the same :class:`LockGraph`; an edge A -> B means some thread
acquired B while holding A.  A cycle is ``LK001``: two threads following
the two orders can deadlock -- exactly the AB/BA pattern the runtime
only diagnoses once it has already happened.

The dynamic monitor also flags ``LK002`` (a thread *actually blocked*
while holding a mutex -- every such wait extends a potential wait-for
chain) and ``LK003`` (a thread finished still owning a mutex, which
strands every future waiter).
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.threads import events as ev
from repro.threads.thread import ThreadState


class LockGraph:
    """Directed lock-order graph with per-edge anchors."""

    def __init__(self) -> None:
        self._edges: Dict[Tuple[str, str], List[str]] = {}

    def add(self, held: str, acquired: str, anchor: Optional[str]) -> None:
        if held == acquired:
            return
        anchors = self._edges.setdefault((held, acquired), [])
        if anchor is not None and anchor not in anchors:
            anchors.append(anchor)

    def edges(self) -> List[Tuple[str, str]]:
        return sorted(self._edges)

    def anchors(self, edge: Tuple[str, str]) -> List[str]:
        return list(self._edges.get(edge, ()))

    def cycles(self) -> List[List[str]]:
        """Every elementary cycle, canonicalised and sorted.

        Lock graphs here are tiny (locks per workload, not threads), so a
        simple DFS from each node is plenty.
        """
        adjacency: Dict[str, List[str]] = {}
        for src, dst in self.edges():
            adjacency.setdefault(src, []).append(dst)
        found: Set[Tuple[str, ...]] = set()
        for start in sorted(adjacency):
            stack: List[Tuple[str, List[str]]] = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for nxt in adjacency.get(node, ()):
                    if nxt == start:
                        # canonical rotation: start the cycle at its
                        # smallest node so each cycle is reported once
                        pivot = path.index(min(path))
                        canon = tuple(path[pivot:] + path[:pivot])
                        found.add(canon)
                    elif nxt not in path and nxt > start:
                        # only walk nodes above the start: every cycle is
                        # still found from its smallest member
                        stack.append((nxt, path + [nxt]))
        return [list(c) for c in sorted(found)]

    def cycle_diagnostics(self, source: str) -> List[Diagnostic]:
        found = []
        for cycle in self.cycles():
            hops = " -> ".join(cycle + [cycle[0]])
            anchors: List[str] = []
            for i, node in enumerate(cycle):
                edge = (node, cycle[(i + 1) % len(cycle)])
                anchors.extend(self.anchors(edge))
            found.append(
                Diagnostic(
                    code="LK001",
                    message=f"lock-order cycle: {hops}",
                    anchor=anchors[0] if anchors else None,
                    source=source,
                )
            )
        return found


# -- dynamic pass ----------------------------------------------------------


class LockOrderMonitor:
    """Observer building the lock-order graph from the live event stream."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.graph = LockGraph()
        self._held: Dict[int, List] = {}  # tid -> mutexes, acquisition order
        self._blocking: List[Tuple[str, str, str]] = []
        runtime.add_observer(self)

    def on_event(self, cpu, thread, event) -> None:
        held = self._held.setdefault(thread.tid, [])
        if isinstance(event, ev.Acquire):
            for mutex in held:
                self.graph.add(mutex.label, event.mutex.label, None)
            if event.mutex not in held:
                # held from here even if the acquire blocks: direct
                # handoff makes this thread the owner when it resumes
                held.append(event.mutex)
            if event.mutex.owner is not None and event.mutex.owner is not thread:
                self._note_blocking(thread, held[:-1], event.mutex.label)
        elif isinstance(event, ev.Release):
            if event.mutex in held:
                held.remove(event.mutex)
        elif isinstance(event, ev.CondWait):
            # the wait atomically releases event.mutex and reacquires it
            # before resuming, so only *other* held locks are suspect
            others = [m for m in held if m is not event.mutex]
            self._note_blocking(thread, others, event.condition.label)
        elif isinstance(event, ev.SemWait):
            if event.semaphore.count == 0:
                self._note_blocking(thread, held, event.semaphore.label)
        elif isinstance(event, ev.BarrierWait):
            if event.barrier.waiting + 1 < event.barrier.parties:
                self._note_blocking(thread, held, event.barrier.label)
        elif isinstance(event, ev.Join):
            target = self.runtime.threads.get(event.tid)
            if target is not None and target.alive:
                self._note_blocking(thread, held, f"join({target.name})")
        elif isinstance(event, ev.Sleep):
            self._note_blocking(thread, held, "sleep")

    def _note_blocking(self, thread, held, what: str) -> None:
        for mutex in held:
            self._blocking.append((thread.name, mutex.label, what))

    def diagnose(self, source: str) -> List[Diagnostic]:
        found = self.graph.cycle_diagnostics(source)
        seen: Set[Tuple[str, str, str]] = set()
        for name, mutex, what in self._blocking:
            key = (name, mutex, what)
            if key in seen:
                continue
            seen.add(key)
            found.append(
                Diagnostic(
                    code="LK002",
                    message=(
                        f"{name} blocked on {what} while holding {mutex}"
                    ),
                    source=source,
                )
            )
        for tid in sorted(self._held):
            thread = self.runtime.threads.get(tid)
            if thread is None or thread.state is not ThreadState.DONE:
                continue
            for mutex in self._held[tid]:
                found.append(
                    Diagnostic(
                        code="LK003",
                        message=(
                            f"{thread.name} finished still holding "
                            f"{mutex.label}"
                        ),
                        source=source,
                    )
                )
        return found


# -- static pass -----------------------------------------------------------

#: event constructors whose call means "this statement can block"
_BLOCKING_CALLS = {"SemWait", "BarrierWait", "CondWait", "Join", "Sleep"}


def _call_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _yields_in_order(func: ast.AST) -> List[ast.Yield]:
    """Every ``yield`` in document order (linear-scan approximation)."""
    found: List[ast.Yield] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Yield):
                found.append(child)
            if not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                walk(child)

    walk(func)
    return found


def scan_source(tree: ast.AST, path: str) -> LockGraph:
    """Static lock-order graph for one module's generator functions.

    Mutexes are identified by expression text (``self.alloc_mutex``), the
    standard symbolic-alias approximation; acquisition state is tracked
    across yields in document order.
    """
    graph = LockGraph()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        held: List[Tuple[str, int]] = []
        for yielded in _yields_in_order(node):
            value = yielded.value
            name = _call_name(value) if value is not None else None
            if name == "Acquire" and value.args:
                target = ast.unparse(value.args[0])
                anchor = f"{path}:{value.lineno}"
                for held_name, _line in held:
                    graph.add(held_name, target, anchor)
                if target not in [h for h, _ in held]:
                    held.append((target, value.lineno))
            elif name == "Release" and value.args:
                target = ast.unparse(value.args[0])
                held = [(h, line) for h, line in held if h != target]
    return graph


def scan_workload_class(workload_cls) -> Tuple[LockGraph, str]:
    """Static scan of the module defining ``workload_cls``.

    Returns the graph and the repo-relative path used in anchors.
    """
    source_file = inspect.getsourcefile(workload_cls)
    source = Path(source_file).read_text(encoding="utf-8")
    tree = ast.parse(source, filename=source_file)
    marker = "repro/"
    idx = source_file.rfind(marker)
    rel = source_file[idx:] if idx >= 0 else source_file
    return scan_source(tree, rel), rel
