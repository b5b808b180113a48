"""Machine configurations from the paper's Table 1 and section 5.

Two measured platforms:

- ``ULTRA1`` -- stand-alone 167 MHz UltraSPARC-1 workstation: 16 KB L1-I,
  16 KB L1-D, unified 512 KB direct-mapped external (E-) cache with 64-byte
  lines, 3-cycle E-cache hit, 42-cycle miss penalty.
- ``E5000_8CPU`` -- 8-processor Sun Enterprise 5000 with the same
  processors; an E-cache miss costs 50 cycles, or 80 cycles "if the line is
  cached by another processor".

``SMALL`` is a deliberately tiny configuration (16 KB E-cache, 256 lines)
used by the test suite so simulations finish quickly while exercising the
same code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.machine.address import LINE_BYTES, PAGE_BYTES


@dataclass(frozen=True)
class MemoryTimings:
    """Cycle costs of the E-cache (Table 1, section 5)."""

    l2_hit: int = 3
    l2_miss: int = 42
    l2_miss_remote: int = 42  # cost when another cpu caches the line

    def __post_init__(self) -> None:
        if min(self.l2_hit, self.l2_miss, self.l2_miss_remote) <= 0:
            raise ValueError("all latencies must be positive cycles")


@dataclass(frozen=True)
class MachineConfig:
    """Full description of a simulated platform."""

    name: str
    num_cpus: int = 1
    clock_mhz: int = 167
    line_bytes: int = LINE_BYTES
    page_bytes: int = PAGE_BYTES
    #: Table 1's L1 sizes: recorded configuration, not simulated (the
    #: model and the PICs concern only the E-cache, section 2.1)
    l1i_bytes: int = 16 * 1024
    l1d_bytes: int = 16 * 1024
    l2_bytes: int = 512 * 1024
    #: E-cache associativity; 1 = direct-mapped (the model's domain), >1
    #: selects the LRU set-associative simulator (model-extension ablation)
    l2_ways: int = 1
    timings: MemoryTimings = field(default_factory=MemoryTimings)
    #: model per-cpu dTLBs (64-entry fully associative, ~30-cycle misses);
    #: off by default -- the paper's evaluation concentrates on the E-cache
    model_tlb: bool = False
    #: base cost of an Active Threads context switch, "on the order of 100
    #: instructions on a variety of modern architectures" [33] (section 4.1)
    context_switch_instructions: int = 100

    def __post_init__(self) -> None:
        if self.num_cpus <= 0:
            raise ValueError("need at least one cpu")
        if self.l2_bytes % self.line_bytes != 0:
            raise ValueError("L2 size must be a whole number of lines")
        if self.l2_bytes % self.page_bytes != 0:
            raise ValueError("L2 size must be a whole number of pages")
        if self.l2_ways < 1:
            raise ValueError("E-cache associativity must be at least 1")

    @property
    def l2_lines(self) -> int:
        """N, the E-cache size in lines -- the model's central parameter."""
        return self.l2_bytes // self.line_bytes

    def with_cpus(self, num_cpus: int) -> "MachineConfig":
        """The same platform with a different processor count."""
        return replace(self, name=f"{self.name}x{num_cpus}", num_cpus=num_cpus)


#: Stand-alone UltraSPARC-1 workstation (Table 1).
ULTRA1 = MachineConfig(
    name="ultra1",
    num_cpus=1,
    timings=MemoryTimings(l2_hit=3, l2_miss=42, l2_miss_remote=42),
)

#: 8-cpu Sun Enterprise 5000 (section 5): 50-cycle local miss, 80-cycle
#: miss when the line is cached by another processor.
E5000_8CPU = MachineConfig(
    name="e5000",
    num_cpus=8,
    timings=MemoryTimings(l2_hit=3, l2_miss=50, l2_miss_remote=80),
)

#: Tiny platform for fast tests: 16 KB E-cache = 256 lines of 64 bytes,
#: 2 KB pages so there are 8 page bins.
SMALL = MachineConfig(
    name="small",
    num_cpus=1,
    l1i_bytes=1024,
    l1d_bytes=1024,
    l2_bytes=16 * 1024,
    page_bytes=2048,
)
