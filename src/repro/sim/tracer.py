"""Observed per-thread footprints, maintained from cache install/evict
events.

A thread's *observed* footprint in a processor's cache is the number of
resident lines belonging to the thread's declared state (the projection of
its working set onto the cache -- Thiebaut & Stone's definition the paper
adopts).  The tracer:

- learns state membership from ``Runtime.declare_state`` (virtual lines),
- subscribes to every cpu's E-cache install/evict/invalidate stream
  (physical lines, translated back through the VM reverse map),
- keeps per-(cpu, owner group) resident counts incrementally in numpy
  arrays, so an install or evict batch costs a few array operations and
  sampling a thread sums the counts of the few groups it belongs to.

Lines shared by several threads count toward each of their footprints,
exactly as in the paper's shared-state setting.  A declaration counts
the declared lines already resident, so a thread's observed footprint is
always its declared lines in the cache, whatever the order of
declarations and touches.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

import numpy as np

from repro.machine.smp import Machine
from repro.machine.vm import VirtualMemory
from repro.threads.runtime import Observer


class _Footprints:
    """The tracer's arrays, which its cache listeners update.

    Every per-line array is indexed by virtual line and has one spare last
    slot, where an unmapped line (reverse translation's ``-1``) lands:

    - ``group[vline]``: the line's owner group, an index into ``owners``
      (group 0 owns nothing);
    - ``held[cpu, vline]``: the line's install into ``cpu``'s E-cache has
      been counted and its eviction not yet seen.

    ``counts[cpu, g]`` is the number of lines installed into ``cpu``'s
    E-cache while in group ``g``, minus those evicted while in it.  A
    thread's observed footprint is the sum over the groups it belongs to,
    so a line several threads declared counts once for each owner.  The
    listeners reach only this object and the VM, never the tracer or the
    machine, so a machine and its tracer are freed by reference counting.
    """

    def __init__(self, vm: VirtualMemory, num_cpus: int) -> None:
        self._vm = vm
        self.group = np.zeros(1, dtype=np.int64)
        self.held = np.zeros((num_cpus, 1), dtype=bool)
        self.counts = np.zeros((num_cpus, 1), dtype=np.int64)
        self.owners: List[Tuple[int, ...]] = [()]
        self._group_of: Dict[Tuple[int, ...], int] = {(): 0}
        #: tid -> the groups it belongs to
        self.groups_of: Dict[int, List[int]] = {}

    def cover(self, vlines: np.ndarray) -> np.ndarray:
        """``vlines``, after growing the arrays to index all of them."""
        size = self.group.size - 1
        if vlines.size and vlines[vlines.argmax()] >= size:
            grown = max(int(vlines.max()) + 1, 2 * size) + 1
            group = np.zeros(grown, dtype=np.int64)
            group[:size] = self.group[:size]
            held = np.zeros((self.held.shape[0], grown), dtype=bool)
            held[:, :size] = self.held[:, :size]
            self.group, self.held = group, held
        return vlines

    def declare(self, tid: int, vlines: np.ndarray) -> None:
        """Add ``tid`` to the owners of ``vlines``; the lines each cpu
        holds leave their old groups' counts for their new groups'."""
        vlines = np.asarray(vlines, dtype=np.int64)
        if not vlines.size:
            return
        if vlines[vlines.argmin()] < 0:
            raise ValueError("declared virtual lines must be non-negative")
        self.cover(vlines)
        # each held line once, however often ``vlines`` names it; only the
        # held subset is deduplicated, as numpy's unique is slow on a
        # large state
        held = [np.unique(vlines[row[vlines]]) for row in self.held]
        for cpu, lines in enumerate(held):
            self.counts[cpu] -= np.bincount(
                self.group[lines], minlength=self.counts.shape[1]
            )
        groups, inverse = np.unique(self.group[vlines], return_inverse=True)
        joined = [self._join(g, tid) for g in groups.tolist()]
        self.group[vlines] = np.asarray(joined, dtype=np.int64)[inverse]
        for cpu, lines in enumerate(held):
            self.counts[cpu] += np.bincount(
                self.group[lines], minlength=self.counts.shape[1]
            )

    def _join(self, group: int, tid: int) -> int:
        owners = self.owners[group]
        if tid in owners:
            return group
        owners = tuple(sorted(owners + (tid,)))
        joined = self._group_of.get(owners)
        if joined is None:
            joined = self._group_of[owners] = len(self.owners)
            self.owners.append(owners)
            for owner in owners:
                self.groups_of.setdefault(owner, []).append(joined)
            column = np.zeros((self.counts.shape[0], 1), dtype=np.int64)
            self.counts = np.hstack([self.counts, column])
        return joined

    def install(self, cpu: int, plines: np.ndarray) -> None:
        vlines = self.cover(self._vm.reverse_lines(plines))
        held = self.held[cpu]
        fresh = vlines[~held[vlines]]
        held[fresh] = True
        self.counts[cpu] += np.bincount(
            self.group[fresh], minlength=self.counts.shape[1]
        )

    def evict(self, cpu: int, plines: np.ndarray) -> None:
        vlines = self.cover(self._vm.reverse_lines(plines))
        held = self.held[cpu]
        gone = vlines[held[vlines]]
        held[gone] = False
        self.counts[cpu] -= np.bincount(
            self.group[gone], minlength=self.counts.shape[1]
        )

    def per_thread(self, counts: np.ndarray) -> Dict[int, int]:
        """tid -> its non-zero sum of ``counts`` (one row, per group)."""
        sums = {
            tid: int(counts[groups].sum())
            for tid, groups in sorted(self.groups_of.items())
        }
        return {tid: c for tid, c in sums.items() if c != 0}


class FootprintTracer(Observer):
    """Ground-truth footprint observation (measurement only)."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._footprints = _Footprints(machine.vm, len(machine.cpus))
        for cpu_id, cpu in enumerate(machine.cpus):
            cpu.l2.on_install(
                functools.partial(self._footprints.install, cpu_id)
            )
            cpu.l2.on_evict(functools.partial(self._footprints.evict, cpu_id))

    # -- state declaration -----------------------------------------------------

    def on_state_declared(self, tid: int, vlines: np.ndarray) -> None:
        self._footprints.declare(tid, vlines)

    # -- queries ------------------------------------------------------------------

    def observed(self, cpu: int, tid: int) -> int:
        """Current observed footprint of ``tid`` in ``cpu``'s E-cache."""
        groups = self._footprints.groups_of.get(tid)
        if groups is None:
            return 0
        row = self._footprints.counts[cpu]
        if len(groups) == 1:
            return int(row[groups[0]])
        return int(row[groups].sum())

    def observed_all(self, cpu: int) -> Dict[int, int]:
        """All non-zero observed footprints on one cpu."""
        counts = self._footprints.per_thread(self._footprints.counts[cpu])
        return {tid: c for tid, c in counts.items() if c > 0}

    def check_consistency(self, cpu: int) -> bool:
        """Recompute footprints from the cache contents and compare with
        the incremental counts (used by the test suite)."""
        footprints = self._footprints
        resident = self.machine.cpus[cpu].l2.resident_lines()
        vlines = footprints.cover(self.machine.vm.reverse_lines(resident))
        recount = np.bincount(
            footprints.group[vlines], minlength=footprints.counts.shape[1]
        )
        return footprints.per_thread(recount) == footprints.per_thread(
            footprints.counts[cpu]
        )


def event_timeline(runtime) -> List[Tuple[int, int, int, str]]:
    """The run's fired-event timeline as ``(time, seq, tid, kind)`` rows.

    Reads the event queue's audit log (``enable_log()`` must have been
    called before the run, with a limit that covers every event -- a
    truncated log raises instead of passing for the whole run; see
    :func:`repro.sim.trace.record_workload_trace`).  The rows are in
    firing order and -- because both engines share one
    :class:`~repro.sim.events.EventQueue` with the deterministic
    ``(time, seq, tid)`` ordering -- identical between ``--engine
    stepped`` and ``--engine event``.
    """
    queue = runtime.event_queue
    if queue.log is None:
        raise ValueError(
            "event logging was not enabled; call "
            "runtime.event_queue.enable_log() before the run"
        )
    if queue.log_dropped:
        raise ValueError(
            f"the event log dropped {queue.log_dropped} events past its "
            f"{len(queue.log)} rows; raise enable_log(limit=) (the "
            "log_events= of record_workload_trace) to cover the whole run"
        )
    return [(e.time, e.seq, e.tid, e.kind.name) for e in queue.log]
