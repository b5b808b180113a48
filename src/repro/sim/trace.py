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
  counter value alone;
- :func:`reuse_distance_histogram` and :func:`working_set_sizes` are the
  standard trace analyses (stack distances, Denning working sets) a
  trace-driven study would report.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.threads.runtime import Observer, Runtime


class TraceBudgetExceeded(Exception):
    """The recorder hit its storage budget (the off-line cost made real)."""


class ReferenceTraceRecorder(Observer):
    """Records every thread's virtual-line reference stream.

    ``max_total_refs`` bounds memory; exceeding it either raises (default)
    or silently stops recording (``strict=False``), so experiments can
    report how much trace the off-line method needed.
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


class TracingRuntimeAdapter(Observer):
    """Bridges the runtime's Touch events into a recorder.

    The runtime exposes each touch batch's *virtual* lines through
    ``runtime.last_touch_lines`` while it notifies observers; this adapter
    forwards them into the recorder under the touching thread's tid.
    """

    def __init__(self, runtime, recorder: ReferenceTraceRecorder):
        self.runtime = runtime
        self.recorder = recorder
        runtime.add_observer(self)

    def on_touch(self, cpu: int, thread, result) -> None:
        vlines = self.runtime.last_touch_lines
        if vlines is not None and vlines.size:
            self.recorder.record(thread.tid, vlines)


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
    off-line analyses below can be driven from either.  A non-zero
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
    TracingRuntimeAdapter(runtime, recorder)
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


def reuse_distance_histogram(
    trace: np.ndarray, max_distance: Optional[int] = None
) -> Dict[int, int]:
    """LRU stack distances: unique lines touched between successive uses.

    Cold references get distance -1.  ``max_distance`` lumps longer
    distances into one bucket (keyed by ``max_distance``).
    """
    stack: "OrderedDict[int, None]" = OrderedDict()
    histogram: Dict[int, int] = {}
    for line in np.asarray(trace, dtype=np.int64).tolist():
        if line in stack:
            distance = 0
            for key in reversed(stack):
                if key == line:
                    break
                distance += 1
            if max_distance is not None and distance > max_distance:
                distance = max_distance
            stack.move_to_end(line)
        else:
            distance = -1
            stack[line] = None
        histogram[distance] = histogram.get(distance, 0) + 1
    return histogram


def working_set_sizes(trace: np.ndarray, window: int) -> np.ndarray:
    """Denning working sets: distinct lines in each trailing window."""
    if window <= 0:
        raise ValueError("window must be positive")
    trace = np.asarray(trace, dtype=np.int64)
    sizes = np.empty(max(0, trace.size - window + 1), dtype=np.int64)
    counts: Dict[int, int] = {}
    for i, line in enumerate(trace.tolist()):
        counts[line] = counts.get(line, 0) + 1
        if i >= window:
            old = int(trace[i - window])
            counts[old] -= 1
            if counts[old] == 0:
                del counts[old]
        if i >= window - 1:
            sizes[i - window + 1] = len(counts)
    return sizes
