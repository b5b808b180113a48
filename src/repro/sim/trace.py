"""Reference-trace recording and offline footprint analysis.

The paper positions its model against the older, trace-driven
methodology: Thiebaut & Stone assumed footprints known; "Agarwal et al.
noted that no method to obtain such footprints was given and indicated
that it could be inferred by analyzing collected program traces off-line"
(section 2.1).  This module builds that off-line pipeline so the two
approaches can be compared head to head:

- :class:`ReferenceTraceRecorder` captures each thread's line-reference
  stream (with an explicit storage budget -- the cost that makes off-line
  analysis unattractive for a runtime system);
- :func:`footprint_curve_from_trace` replays a thread's trace through a
  private direct-mapped cache, producing the observed footprint as a
  function of misses -- exactly what the on-line model predicts from a
  counter value alone.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.threads.runtime import Observer, Runtime


class TraceBudgetExceeded(Exception):
    """The recorder hit its storage budget (the off-line cost made real)."""


class ReferenceTraceRecorder(Observer):
    """Records every thread's virtual-line reference stream.

    Attach it with ``runtime.add_observer``: each touch batch's virtual
    lines are recorded under the touching thread's tid.
    ``max_total_refs`` bounds memory; exceeding it either raises
    (default) or silently stops recording (``strict=False``), so
    experiments can report how much trace the off-line method needed.
    """

    def __init__(self, max_total_refs: int = 5_000_000, strict: bool = True):
        if max_total_refs <= 0:
            raise ValueError("the recorder needs a positive budget")
        self.max_total_refs = max_total_refs
        self.strict = strict
        self.total_refs = 0
        self.truncated = False
        self._chunks: Dict[int, List[np.ndarray]] = {}

    def record(self, tid: int, vlines: np.ndarray) -> None:
        """Append a batch of virtual line references for a thread."""
        if self.truncated:
            return
        if self.total_refs + vlines.size > self.max_total_refs:
            if self.strict:
                raise TraceBudgetExceeded(
                    f"trace exceeded {self.max_total_refs} references"
                )
            self.truncated = True
            return
        self._chunks.setdefault(tid, []).append(
            np.asarray(vlines, dtype=np.int64)
        )
        self.total_refs += vlines.size

    def trace(self, tid: int) -> np.ndarray:
        """The thread's full reference stream, in program order."""
        chunks = self._chunks.get(tid)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    def threads(self) -> List[int]:
        """Tids with recorded references."""
        return sorted(self._chunks)

    @property
    def storage_bytes(self) -> int:
        """Bytes the recorded traces occupy (8 per reference)."""
        return 8 * self.total_refs

    def on_touch(self, cpu: int, thread, touch) -> None:
        if touch.lines.size:
            self.record(thread.tid, touch.lines)


def record_workload_trace(
    workload,
    config,
    scheduler,
    seed: int = 0,
    engine: str = Runtime.DEFAULT_ENGINE,
    max_total_refs: int = 5_000_000,
    strict: bool = True,
    log_events: int = 0,
) -> Tuple[ReferenceTraceRecorder, "Runtime"]:
    """Run a workload to completion while recording reference traces.

    Returns ``(recorder, runtime)``.  ``engine`` selects the scheduling
    loop (``"stepped"`` or ``"event"``); because the engines are
    bit-identical (docs/MODEL.md), the recorded traces are too, so the
    off-line replay below can be driven from either.  A non-zero
    ``log_events`` additionally enables the event queue's audit log
    (``runtime.event_queue.log``) with room for that many rows, for
    timeline reconstruction -- see :func:`repro.sim.tracer.event_timeline`.
    """
    from repro.machine.smp import Machine

    machine = Machine(config, seed=seed)
    runtime = Runtime(machine, scheduler, engine=engine)
    if log_events:
        runtime.event_queue.enable_log(limit=log_events)
    recorder = ReferenceTraceRecorder(
        max_total_refs=max_total_refs, strict=strict
    )
    runtime.add_observer(recorder)
    workload.build(runtime)
    runtime.run()
    return recorder, runtime


def footprint_curve_from_trace(
    trace: np.ndarray, cache_lines: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay a single thread's trace through a private direct-mapped
    cache; returns (cumulative misses, footprint) sampled at each miss.

    This is the off-line equivalent of the on-line model's case 1: what
    the thread's footprint would be after its first n misses, obtained by
    storing and replaying the whole trace rather than reading a counter.
    """
    if cache_lines <= 0:
        raise ValueError("cache must have at least one line")
    resident = np.full(cache_lines, -1, dtype=np.int64)
    footprint = 0
    misses = 0
    xs: List[int] = []
    ys: List[int] = []
    for line in np.asarray(trace, dtype=np.int64):
        idx = line % cache_lines
        if resident[idx] == line:
            continue
        if resident[idx] == -1:
            footprint += 1
        resident[idx] = line
        misses += 1
        xs.append(misses)
        ys.append(footprint)
    return np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
