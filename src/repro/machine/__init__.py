"""Simulated hardware substrate.

This package is the Python stand-in for the paper's measurement platform: a
Sun Ultra-1 / Enterprise 5000 observed through Shade plus a custom cache
simulator (paper section 3.1).  It provides:

- :mod:`repro.machine.address` -- a shared virtual address space with region
  allocation (threads share one address space, as in the paper's model).
- :mod:`repro.machine.vm` -- virtual-to-physical page placement, including
  the Kessler-Hill hierarchical policy the paper simulates.
- :mod:`repro.machine.cache` -- direct-mapped and set-associative caches
  that report installed/evicted lines so footprints can be observed; each
  cpu has one, its E-cache.  The paper's model and counters concern only
  the E-cache, so Table 1's L1 sizes are recorded configuration, not
  simulated.
- :mod:`repro.machine.counters` -- UltraSPARC-style performance
  instrumentation counters (PIC/PCR).
- :mod:`repro.machine.processor` / :mod:`repro.machine.smp` -- processors
  with cycle accounting and the multiprocessor with an invalidation
  directory.
- :mod:`repro.machine.configs` -- the concrete Ultra-1 and E5000
  configurations from Table 1, plus a small configuration for tests.
"""

from repro.machine.address import AddressSpace, Region
from repro.machine.cache import AccessResult, DirectMappedCache, SetAssociativeCache
from repro.machine.configs import (
    E5000_8CPU,
    SMALL,
    ULTRA1,
    MachineConfig,
    MemoryTimings,
)
from repro.machine.counters import CounterEvent, PerformanceCounters
from repro.machine.processor import Processor
from repro.machine.smp import Machine
from repro.machine.vm import KesslerHillPlacement, NaivePlacement, VirtualMemory

__all__ = [
    "AccessResult",
    "AddressSpace",
    "CounterEvent",
    "DirectMappedCache",
    "E5000_8CPU",
    "KesslerHillPlacement",
    "Machine",
    "MachineConfig",
    "MemoryTimings",
    "NaivePlacement",
    "PerformanceCounters",
    "Processor",
    "Region",
    "SMALL",
    "SetAssociativeCache",
    "ULTRA1",
    "VirtualMemory",
]
