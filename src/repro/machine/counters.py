"""Hardware performance-counter emulation.

Models the UltraSPARC Performance Instrumentation Counters (section 2.2):
two 32-bit counters (PIC0/PIC1) whose events are selected through a
Performance Control Register (PCR), with a user-access bit that lets the
runtime read them "for free".  On both of the paper's platforms the PICs
are "configured to accumulate the number of E-cache references and hits"
(section 5) and the scheduler derives misses as references minus hits.

The emulation enforces the same constraints real hardware imposes:

- only two events can be counted at once (the reason the paper's model
  ignores invalidation effects: "the performance instrumentation counters
  of the hardware available to us could not keep track of the secondary
  cache misses and invalidation events at the same time", section 3.4);
- counters are 32 bits wide and wrap;
- reading from user mode requires the PCR user-trace bit, and reads and
  resets cost a few instructions which the caller is expected to charge to
  the simulated clock (:data:`READ_COST_INSTRUCTIONS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

#: instruction cost of reading + resetting the PICs at user level; the
#: paper: "the counter overhead includes only several instructions for
#: reading and resetting the appropriate registers" (section 5).
READ_COST_INSTRUCTIONS = 6

#: default PIC register width (UltraSPARC PICs are 32 bits wide)
DEFAULT_WIDTH_BITS = 32
_WRAP = 1 << DEFAULT_WIDTH_BITS


class CounterEvent(Enum):
    """Events a PIC can be configured to count."""

    CYCLES = "cycles"
    INSTRUCTIONS = "instructions"
    ECACHE_REFS = "ecache_refs"
    ECACHE_HITS = "ecache_hits"
    ECACHE_MISSES = "ecache_misses"
    ECACHE_INVALIDATIONS = "ecache_invalidations"


class CounterAccessError(Exception):
    """Raised on a user-mode read with the PCR user-trace bit clear."""


@dataclass
class _Pic:
    event: CounterEvent
    wrap: int = _WRAP
    value: int = 0


class PerformanceCounters:
    """A per-processor PCR plus two PICs.

    The hardware exposes raw event counts only; everything the scheduler
    derives (per-interval miss counts) is computed in software from two
    reads, exactly as the paper's runtime does.
    """

    def __init__(
        self,
        pic0: CounterEvent = CounterEvent.ECACHE_REFS,
        pic1: CounterEvent = CounterEvent.ECACHE_HITS,
        user_access: bool = True,
        width_bits: int = DEFAULT_WIDTH_BITS,
    ) -> None:
        if width_bits < 1:
            raise ValueError("counter width must be at least one bit")
        self.width_bits = width_bits
        #: modulus of the registers; raw values live in [0, wrap)
        self.wrap = 1 << width_bits
        self._pics = (_Pic(pic0, self.wrap), _Pic(pic1, self.wrap))
        self.user_access = user_access
        self.reads = 0
        #: bumped on every PCR reprogramming; snapshot-holding views
        #: compare epochs to detect that their baseline is stale
        self.config_epoch = 0

    def configure(
        self,
        pic0: CounterEvent,
        pic1: CounterEvent,
        privileged: bool = False,
    ) -> None:
        """Reprogram the PCR event selectors; clears both counters.

        Only two events can be live at once -- the hardware constraint the
        paper works within.  Writing the PCR obeys the same access rule as
        :meth:`read`/:meth:`reset`: with the user-trace bit clear, a
        user-mode write traps instead of silently reprogramming the
        selectors and clearing both PICs.
        """
        if not privileged and not self.user_access:
            raise CounterAccessError(
                "PCR user-trace bit clear; user-mode PCR write traps"
            )
        self._pics = (_Pic(pic0, self.wrap), _Pic(pic1, self.wrap))
        self.config_epoch += 1

    @property
    def events(self) -> Tuple[CounterEvent, CounterEvent]:
        """The two events currently selected."""
        return (self._pics[0].event, self._pics[1].event)

    def record(self, event: CounterEvent, amount: int = 1) -> None:
        """Hardware-side: accumulate an event occurrence."""
        for pic in self._pics:
            if pic.event is event:
                pic.value = (pic.value + amount) % pic.wrap

    def read(self, privileged: bool = False) -> Tuple[int, int]:
        """Read (PIC0, PIC1) from user or supervisor mode."""
        if not privileged and not self.user_access:
            raise CounterAccessError(
                "PCR user-trace bit clear; user-mode PIC read traps"
            )
        self.reads += 1
        return (self._pics[0].value, self._pics[1].value)

    def reset(self, privileged: bool = False) -> None:
        """Clear both counters (same access rules as :meth:`read`)."""
        if not privileged and not self.user_access:
            raise CounterAccessError(
                "PCR user-trace bit clear; user-mode PIC write traps"
            )
        for pic in self._pics:
            pic.value = 0


class MissCounterView:
    """Software view deriving per-interval miss counts from the PICs.

    This is the scheduler-facing API used at every context switch: it reads
    refs/hits, subtracts the values at the start of the scheduling interval
    (modulo the register width, so wraparound between reads is harmless as
    long as an interval accumulates fewer than ``wrap`` events), and
    reports the interval's miss count.  A glitched pair of reads in which
    the hit delta exceeds the ref delta -- physically impossible, so
    necessarily a wrap artefact or hardware fault -- is clamped to zero
    misses rather than reported as a negative count.

    An interval that accumulates ``wrap`` or more events cannot be
    distinguished from one that accumulated ``events % wrap`` -- the
    modulo subtraction silently under-reports it.  The view therefore
    keeps a conservative overflow-suspicion flag: a single-interval
    delta exceeding ``wrap // 2`` (or a hit delta exceeding the ref
    delta) is far more plausibly a wrapped register than real traffic,
    so it sets :attr:`last_overflow_suspect`, bumps
    :attr:`overflow_suspects`, and records a diagnostic string -- the
    runtime surfaces these so LFF never consumes a wrapped ``n``
    unnoticed (the scheduler still clamps the *value*; the flag is what
    makes the wrap visible instead of silent).
    """

    def __init__(self, counters: PerformanceCounters) -> None:
        if counters.events != (CounterEvent.ECACHE_REFS, CounterEvent.ECACHE_HITS):
            raise ValueError(
                "MissCounterView needs PIC0=ECACHE_REFS, PIC1=ECACHE_HITS; "
                f"got {counters.events}"
            )
        self._counters = counters
        self._wrap = counters.wrap
        self._last_refs, self._last_hits = counters.read()
        #: PCR configuration the snapshot belongs to; a mismatch at read
        #: time means configure() ran mid-interval and the snapshot no
        #: longer refers to the same events
        self._config_epoch = counters.config_epoch
        #: True when the most recent interval's deltas looked wrapped
        self.last_overflow_suspect = False
        #: intervals flagged as overflow-suspect since construction
        self.overflow_suspects = 0
        #: diagnostic string for the most recent suspect interval
        self.last_overflow_detail = ""

    def _flag_suspect(self, detail: str) -> None:
        self.last_overflow_suspect = True
        self.overflow_suspects += 1
        self.last_overflow_detail = detail

    def interval_misses(self) -> int:
        """Misses since the previous call (or construction); never negative.

        A ``configure()`` between the interval-start snapshot and this
        read would make the modulo subtraction compare counts of
        *different events* (and both PICs were cleared by the write), so
        the delta is garbage: the view detects the reprogramming via the
        PCR config epoch, re-baselines its snapshot, reports the interval
        as zero misses, and flags it suspect rather than returning the
        garbage delta.
        """
        counters = self._counters
        if counters.config_epoch != self._config_epoch:
            self._resync()
            self._flag_suspect(
                "PCR reprogrammed mid-interval (configure() cleared the "
                "PICs and may have switched events): snapshot invalidated; "
                "interval reported as 0 misses"
            )
            return 0
        if counters.events != (
            CounterEvent.ECACHE_REFS,
            CounterEvent.ECACHE_HITS,
        ):
            # epoch matched but the PICs are not counting refs/hits (a
            # reprogram before this view's construction raced it): every
            # interval is meaningless until reconfigured
            self._resync()
            self._flag_suspect(
                f"PICs configured for {counters.events}, not "
                "(ECACHE_REFS, ECACHE_HITS): interval reported as 0 misses"
            )
            return 0
        refs, hits = counters.read()
        d_refs = (refs - self._last_refs) % self._wrap
        d_hits = (hits - self._last_hits) % self._wrap
        self._last_refs, self._last_hits = refs, hits
        threshold = self._wrap // 2
        suspect = d_refs > threshold or d_hits > threshold or d_hits > d_refs
        self.last_overflow_suspect = suspect
        if suspect:
            self.overflow_suspects += 1
            self.last_overflow_detail = (
                f"counter deltas refs={d_refs} hits={d_hits} exceed "
                f"wrap/2={threshold} of a {self._counters.width_bits}-bit "
                "PIC (or hits > refs): interval likely wrapped; miss count "
                "under-reported"
            )
        return max(0, d_refs - d_hits)

    def _resync(self) -> None:
        """Re-baseline the snapshot against the current PCR programming."""
        self._last_refs, self._last_hits = self._counters.read()
        self._config_epoch = self._counters.config_epoch

    @property
    def read_cost_instructions(self) -> int:
        """Instruction cost the caller should charge per interval read."""
        return READ_COST_INSTRUCTIONS
