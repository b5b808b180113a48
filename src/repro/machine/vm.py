"""Virtual-to-physical page placement.

The UltraSPARC E-cache is physically indexed and tagged while workloads
generate virtual addresses, so page placement decides which cache bins a
page's lines land in.  The paper implements "a variant of the hierarchical
page mapping policy suggested by Kessler and Hill [13] ... shown to perform
better than a naive (arbitrary) page placement" (section 3.1).  Both
policies are provided here; the hierarchical one is the default everywhere,
and the naive one backs the page-placement ablation bench.

Pages are mapped lazily, on first touch (a simulated page fault), exactly
like a demand-paged VM system.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.machine.address import LINE_BYTES, PAGE_BYTES


class PlacementPolicy:
    """Chooses a physical frame for a faulting virtual page.

    Policies see the *cache geometry* (number of page-sized bins in the
    cache) because that is what page coloring is about; they do not see
    cache contents.
    """

    def __init__(
        self,
        num_bins: int,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ):
        if num_bins <= 0:
            raise ValueError("cache must have at least one page bin")
        self.num_bins = num_bins
        #: the tiebreak stream: either the machine's generator, or one
        #: derived from the explicit ``seed`` parameter -- never an
        #: implicit constant buried in the implementation
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def choose_bin(self, vpage: int) -> int:
        """Pick the cache bin (page color) for a faulting page."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget per-run state (bin usage counts)."""


class NaivePlacement(PlacementPolicy):
    """Arbitrary placement: a uniformly random bin per fault.

    This is the baseline Kessler and Hill improve upon; kept for the
    ablation bench.
    """

    def choose_bin(self, vpage: int) -> int:
        return int(self.rng.integers(self.num_bins))


class KesslerHillPlacement(PlacementPolicy):
    """Hierarchical page placement (Kessler & Hill 1992, section 3.1).

    A fault descends a binary tree over groups of cache bins, at each level
    taking the half with the lighter aggregate load, and finally picks the
    least-loaded bin in the reached leaf group (rotating the tiebreak so
    identical fault sequences do not align onto identical bins).  The
    effect is to spread pages evenly over cache bins and so reduce conflict
    misses -- which the paper relies on to justify the model's
    uniform-mapping assumption, and which "was shown to perform better than
    a naive (arbitrary) page placement".
    """

    #: bins per color group: a page may be placed in any bin of its
    #: virtual color's group, wherever the current load is lightest
    leaf_group: int = 4

    def __init__(
        self,
        num_bins: int,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ):
        super().__init__(num_bins, rng, seed=seed)
        self._bin_load = np.zeros(num_bins, dtype=np.int64)

    def choose_bin(self, vpage: int) -> int:
        # Page coloring picks the group (so virtual locality maps to
        # distinct bins, like the static policy); the load comparison picks
        # the bin within the group (the hierarchical refinement); a random
        # tie-break stops two identical allocation sequences from landing
        # on identical bins.
        preferred = vpage % self.num_bins
        lo = (preferred // self.leaf_group) * self.leaf_group
        hi = min(lo + self.leaf_group, self.num_bins)
        group = list(range(lo, hi))
        loads = self._bin_load[group]
        lightest = loads.min()
        candidates = [b for b, load in zip(group, loads) if load == lightest]
        best = candidates[int(self.rng.integers(len(candidates)))]
        self._bin_load[best] += 1
        return best

    def reset(self) -> None:
        self._bin_load[:] = 0


#: table entry of an unmapped page: so far below zero that a line plus it
#: stays negative, which lets one sign test find every unmapped line
_UNMAPPED = -(1 << 62)


def _grown(table: np.ndarray, need: int) -> np.ndarray:
    """``table`` with room for at least ``need`` pages plus its sentinel."""
    cap = table.size - 1
    grown = np.full(max(need, 2 * cap) + 1, _UNMAPPED, dtype=np.int64)
    grown[:cap] = table[:cap]
    return grown


class VirtualMemory:
    """Demand-paged virtual memory with pluggable placement.

    Frames are unbounded (the paper notes all runs fit in RAM); what matters
    is the *color* of the frame each page gets, i.e. which cache bin its
    lines index into.  A frame is identified by a physical page number whose
    low bits encode its bin:  ``ppage % num_bins == bin``.

    The page tables are two growable int64 arrays, one per direction,
    indexed by page number.  An entry holds the page's line shift (the
    physical minus the virtual line number of each of its lines, or the
    reverse), so translating a batch is one gather and one add; unmapped
    pages hold ``_UNMAPPED``.  Each table's last slot is a sentinel that is
    never mapped: gathers clip page numbers past the end onto it, so such a
    page reads as unmapped and faults instead of aliasing a mapped slot.
    A negative virtual line would clip onto page 0, so a batch holding one
    is rejected; every :class:`~repro.machine.address.Region`'s lines are
    non-negative.
    """

    def __init__(
        self,
        cache_bytes: int,
        page_bytes: int = PAGE_BYTES,
        line_bytes: int = LINE_BYTES,
        policy: Optional[PlacementPolicy] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if cache_bytes % page_bytes != 0:
            raise ValueError("cache size must be a whole number of pages")
        self.page_bytes = page_bytes
        self.line_bytes = line_bytes
        self.lines_per_page = page_bytes // line_bytes
        self.num_bins = cache_bytes // page_bytes
        self.policy = policy or KesslerHillPlacement(self.num_bins, rng=rng)
        if self.policy.num_bins != self.num_bins:
            raise ValueError("placement policy built for a different cache geometry")
        #: virtual page -> physical line - virtual line of its lines
        self._v2p_shift = np.full(1, _UNMAPPED, dtype=np.int64)
        #: physical page -> virtual line - physical line of its lines
        self._p2v_shift = np.full(1, _UNMAPPED, dtype=np.int64)
        self._next_frame_in_bin: List[int] = list(range(self.num_bins))
        self.page_faults = 0

    def _fault(self, vpage: int) -> None:
        self.page_faults += 1
        color = self.policy.choose_bin(vpage)
        ppage = self._next_frame_in_bin[color]
        self._next_frame_in_bin[color] += self.num_bins
        if vpage >= self._v2p_shift.size - 1:
            self._v2p_shift = _grown(self._v2p_shift, vpage + 1)
        if ppage >= self._p2v_shift.size - 1:
            self._p2v_shift = _grown(self._p2v_shift, ppage + 1)
        shift = (ppage - vpage) * self.lines_per_page
        self._v2p_shift[vpage] = shift
        self._p2v_shift[ppage] = -shift

    def translate_lines(self, vlines: np.ndarray) -> np.ndarray:
        """Translate an array of virtual line numbers to physical lines.

        One gather of each line's page shift; only when some line lands on
        an unmapped page are that batch's unmapped pages faulted in, in
        ascending page order (the order the placement policy sees), before
        a second gather.  A one-line batch takes the same steps on Python
        scalars.
        """
        vlines = np.asarray(vlines, dtype=np.int64)
        if vlines.size == 1:
            pline = self._translate_line(vlines.item())
            return np.array((pline,), dtype=np.int64)
        if vlines.size == 0:
            return vlines
        if vlines[vlines.argmin()] < 0:
            raise ValueError("virtual line numbers must be non-negative")
        vpages = vlines // self.lines_per_page
        plines = vlines + self._v2p_shift.take(vpages, mode="clip")
        if plines[plines.argmin()] < 0:
            for vpage in np.unique(vpages[plines < 0]).tolist():
                self._fault(vpage)
            plines = vlines + self._v2p_shift.take(vpages, mode="clip")
        return plines

    def _translate_line(self, vline: int) -> int:
        if vline < 0:
            raise ValueError("virtual line numbers must be non-negative")
        vpage = vline // self.lines_per_page
        table = self._v2p_shift
        # a page at or past the sentinel slot reads as unmapped, as the
        # batch path's clipped gather does
        pline = vline + (
            table.item(vpage) if vpage < table.size - 1 else _UNMAPPED
        )
        if pline < 0:
            self._fault(vpage)
            pline = vline + self._v2p_shift.item(vpage)
        return pline

    def reverse_lines(self, plines: np.ndarray) -> np.ndarray:
        """Virtual line of each physical line; unmapped lines map to ``-1``."""
        plines = np.asarray(plines, dtype=np.int64)
        shifts = self._p2v_shift.take(plines // self.lines_per_page, mode="clip")
        return np.maximum(plines + shifts, -1)
