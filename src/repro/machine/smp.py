"""The simulated multiprocessor.

Ties together the per-cpu processors, one shared virtual memory, and, on
an SMP, a coherence directory that knows which cpus cache which physical
lines.  The directory serves two purposes, both from section 5 of the
paper:

- it prices Enterprise-5000 misses: 80 cycles "if the line is cached by
  another processor", 50 otherwise (and a flat 42 on the Ultra-1);
- it implements write invalidation, so that "data cached by one processor
  is modified by another" actually removes lines from remote caches.  The
  paper's *model* deliberately ignores invalidations (its counters cannot
  count them together with misses, section 3.4); the *simulated
  hardware* here still performs them, and a PIC selected for
  ``ECACHE_INVALIDATIONS`` counts them, so the model faces the same
  unmodelled effects it faced on the real machine.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.machine.address import AddressSpace
from repro.machine.cache import AccessResult
from repro.machine.configs import MachineConfig
from repro.machine.processor import Processor
from repro.machine.tlb import TLB
from repro.machine.vm import PlacementPolicy, VirtualMemory


class LineDirectory:
    """Which cpus currently cache each physical line.

    Each cached line maps to a Python int whose bit ``c`` is set while
    cpu ``c`` holds it.  Python ints have no width, so any cpu count fits,
    and a mask below 256 is one of the interpreter's shared small ints:
    an 8-cpu directory stores no object per line beyond its key.
    """

    def __init__(self, num_cpus: int) -> None:
        self.num_cpus = num_cpus
        self._holders: Dict[int, int] = {}

    def add(self, cpu_id: int, plines: np.ndarray) -> None:
        holders = self._holders
        get = holders.get
        bit = 1 << cpu_id
        for pline in plines.tolist():
            holders[pline] = get(pline, 0) | bit

    def remove(self, cpu_id: int, plines: np.ndarray) -> None:
        holders = self._holders
        keep = ~(1 << cpu_id)
        for pline in plines.tolist():
            mask = holders.get(pline)
            if mask is None:
                continue
            mask &= keep
            if mask:
                holders[pline] = mask
            else:
                del holders[pline]

    def count_remote(self, plines: np.ndarray, cpu_id: int) -> int:
        """How many of ``plines`` some other cpu caches."""
        get = self._holders.get
        others = ~(1 << cpu_id)
        count = 0
        for pline in plines.tolist():
            if get(pline, 0) & others:
                count += 1
        return count

    def remote_copies(
        self, plines: np.ndarray, cpu_id: int
    ) -> Dict[int, np.ndarray]:
        """Each other cpu that caches some of ``plines``, with those lines.

        Each line is listed once, however often ``plines`` names it.  Cpus
        appear in the order of their first such line in ``plines`` (ties
        by cpu id); each cpu's lines keep their first-occurrence order.
        A one-line ``plines`` is itself each holder's array.
        """
        get = self._holders.get
        others = ~(1 << cpu_id)
        lines = plines.tolist()
        copies: Dict[int, List[int]] = {}
        for pline in dict.fromkeys(lines):
            mask = get(pline, 0) & others
            while mask:
                low = mask & -mask
                copies.setdefault(low.bit_length() - 1, []).append(pline)
                mask ^= low
        if len(lines) == 1:
            return dict.fromkeys(copies, plines)
        return {
            holder: np.asarray(held, dtype=np.int64)
            for holder, held in copies.items()
        }


class Machine:
    """An SMP: processors + shared VM + (on several cpus) coherence directory.

    The runtime addresses the machine in *virtual* lines; translation and
    coherence happen here.  Each cpu keeps its own cycle clock; the runtime
    advances whichever cpu is furthest behind, giving a simple deterministic
    discrete-event interleaving.
    """

    def __init__(
        self,
        config: MachineConfig,
        placement: Optional[PlacementPolicy] = None,
        seed: int = 0,
    ) -> None:
        self.config = config
        rng = np.random.default_rng(seed)
        self.address_space = AddressSpace(
            line_bytes=config.line_bytes, page_bytes=config.page_bytes
        )
        self.vm = VirtualMemory(
            cache_bytes=config.l2_bytes,
            page_bytes=config.page_bytes,
            line_bytes=config.line_bytes,
            policy=placement,
            rng=rng,
        )
        #: which cpus hold each physical line; only an SMP has one.  It
        #: prices remote misses and performs write invalidation: on one
        #: cpu no line can be remote and a write has no other copy to
        #: invalidate
        self.directory: Optional[LineDirectory] = (
            LineDirectory(config.num_cpus) if config.num_cpus > 1 else None
        )
        #: set while the scheduler/runtime touches its own data structures;
        #: devices configured for user-mode-only monitoring (the PCR's
        #: user/supervisor selection, section 2.2) consult this
        self.kernel_mode = False
        self.tlbs: List[Optional[TLB]] = [
            TLB() if config.model_tlb else None
            for _ in range(config.num_cpus)
        ]
        self.cpus: List[Processor] = []
        directory = self.directory
        for cpu_id in range(config.num_cpus):
            cpu = Processor(cpu_id, config)
            if directory is not None:
                # the closures hold the directory, not the machine, so a
                # machine is freed by reference counting
                cpu.set_remote_probe(
                    lambda plines, _cpu=cpu_id: directory.count_remote(
                        plines, _cpu
                    )
                )
                cpu.l2.on_install(
                    lambda plines, _cpu=cpu_id: directory.add(_cpu, plines)
                )
                cpu.l2.on_evict(
                    lambda plines, _cpu=cpu_id: directory.remove(_cpu, plines)
                )
            self.cpus.append(cpu)

    # -- execution, in virtual lines --------------------------------------

    def touch(
        self, cpu_id: int, vlines: np.ndarray, write: bool = False
    ) -> AccessResult:
        """Touch virtual lines on a cpu; performs coherence on writes."""
        cpu = self.cpus[cpu_id]
        vlines = np.asarray(vlines, dtype=np.int64)
        tlb = self.tlbs[cpu_id]
        if tlb is not None and vlines.size:
            # the batch's pages, ascending, each once
            vpages = np.sort(vlines // self.vm.lines_per_page)
            vpages = vpages[np.append(True, vpages[1:] != vpages[:-1])]
            tlb_misses = tlb.access(vpages.tolist())
            if tlb_misses:
                cpu.cycles += tlb_misses * tlb.miss_penalty
        plines = self.vm.translate_lines(vlines)
        result = cpu.touch_data(plines)
        if write and self.directory is not None:
            self._invalidate_remote_copies(cpu_id, plines)
        return result

    def compute(self, cpu_id: int, instructions: int) -> None:
        """Run non-memory instructions on a cpu."""
        self.cpus[cpu_id].compute(instructions)

    def _invalidate_remote_copies(self, writer: int, plines: np.ndarray) -> None:
        copies = self.directory.remote_copies(plines, writer)
        for cpu_id, victims in copies.items():
            self.cpus[cpu_id].invalidate(victims)

    # -- clocks ------------------------------------------------------------

    def cycles(self, cpu_id: int) -> int:
        """Cycle clock of one cpu."""
        return self.cpus[cpu_id].cycles

    def time(self) -> int:
        """Machine completion time: the furthest-ahead cpu clock."""
        return max(cpu.cycles for cpu in self.cpus)

    def total_l2_misses(self) -> int:
        """Sum of E-cache misses over all cpus (the paper's headline metric)."""
        return sum(cpu.l2.stats.misses for cpu in self.cpus)

    def total_instructions(self) -> int:
        """Sum of instructions executed over all cpus."""
        return sum(cpu.instructions for cpu in self.cpus)

    def flush_all(self) -> None:
        """Flush every cpu's E-cache (between workload phases)."""
        for cpu in self.cpus:
            cpu.l2.flush()

    def snapshot(self) -> List[dict]:
        """Per-cpu counter snapshots for reports."""
        return [cpu.snapshot() for cpu in self.cpus]
