"""A simulated processor: cycle accounting plus counter updates.

A processor consumes the memory activity of whatever thread the runtime has
dispatched on it: batches of data-line touches and pure compute
(instruction counts).  Every touch goes to the processor's E-cache; E-cache
references and hits are accumulated in the processor's performance counters
exactly as the UltraSPARC PICs would see them, and cycles are charged per
Table 1 latencies.

The distinction between a 50-cycle local miss and an 80-cycle remote miss
(line cached by another processor, Enterprise 5000) is priced by the
machine-level directory, which the processor consults through the remote
probe :class:`repro.machine.smp.Machine` installs (:meth:`set_remote_probe`).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.machine.cache import AccessResult, _BaseCache, e_cache
from repro.machine.configs import MachineConfig
from repro.machine.counters import CounterEvent, PerformanceCounters

#: Hook: given the missed lines, return how many were held by another cpu.
RemoteProbe = Callable[[np.ndarray], int]


class Processor:
    """One cpu of the simulated SMP."""

    def __init__(self, cpu_id: int, config: MachineConfig) -> None:
        self.cpu_id = cpu_id
        self.config = config
        #: this cpu's E-cache: every touch is priced by it, and the
        #: tracer and the coherence directory watch it
        self.l2: _BaseCache = e_cache(config)
        self.counters = PerformanceCounters()
        self.cycles = 0
        self.instructions = 0
        #: misses whose line another cpu cached (priced at the remote cost)
        self.remote_misses = 0
        self._remote_probe: Optional[RemoteProbe] = None

    def set_remote_probe(self, probe: RemoteProbe) -> None:
        """Install the directory callback that prices remote misses."""
        self._remote_probe = probe

    # -- execution interface ----------------------------------------------

    def compute(self, instructions: int) -> None:
        """Execute ``instructions`` cycles of non-memory work.

        Simulated at one instruction per cycle, the base rate of the
        single-issue accounting the paper's relative-performance numbers
        assume.
        """
        if instructions < 0:
            raise ValueError("instruction count must be non-negative")
        self.instructions += instructions
        self.cycles += instructions
        self.counters.record(CounterEvent.INSTRUCTIONS, instructions)
        self.counters.record(CounterEvent.CYCLES, instructions)

    def touch_data(self, plines: np.ndarray) -> AccessResult:
        """Touch data lines; returns the E-cache access result."""
        result = self.l2.access(plines)
        t = self.config.timings
        remote = 0
        if result.misses and self._remote_probe is not None:
            remote = self._remote_probe(result.installed)
        self.remote_misses += remote
        local = result.misses - remote
        cycles = (
            result.hits * t.l2_hit
            + local * t.l2_miss
            + remote * t.l2_miss_remote
        )
        # Each reference is also an instruction's memory stage; charge one
        # base cycle per reference so pure-touch threads make progress on
        # the simulated clock even with a 100% hit rate.
        cycles += result.refs
        self.instructions += result.refs
        self.cycles += cycles
        self.counters.record(CounterEvent.INSTRUCTIONS, result.refs)
        self.counters.record(CounterEvent.CYCLES, cycles)
        self.counters.record(CounterEvent.ECACHE_REFS, result.refs)
        self.counters.record(CounterEvent.ECACHE_HITS, result.hits)
        self.counters.record(CounterEvent.ECACHE_MISSES, result.misses)
        return result

    def invalidate(self, plines: np.ndarray) -> int:
        """Drop this cpu's copies of ``plines``, which are distinct, and
        count the dropped lines as E-cache invalidations; returns how many
        there were.  Write invalidation and the inference's page probe
        both come through here."""
        dropped = self.l2.invalidate(plines)
        self.counters.record(CounterEvent.ECACHE_INVALIDATIONS, dropped)
        return dropped

    # -- convenience ------------------------------------------------------

    def snapshot(self) -> dict:
        """Cycle/instruction/E-cache counters for reports."""
        stats = self.l2.stats.snapshot()
        stats.update(
            cpu=self.cpu_id,
            cycles=self.cycles,
            instructions=self.instructions,
            remote_misses=self.remote_misses,
        )
        return stats
