"""Cache simulators with per-line residency reporting.

The paper's measurement apparatus is a cache simulator that "understands"
context switches and preserves the association between cache lines and
threads, because hardware counters alone lose that association (section 3).
These simulators therefore report exactly which physical lines each access
batch installed and evicted, so an external tracer can maintain observed
per-thread footprints without the cache knowing anything about threads.

Two organisations are provided:

- :class:`DirectMappedCache` -- the organisation the analytical model
  targets ("large off-chip physical direct-mapped caches", section 2.1).
- :class:`SetAssociativeCache` -- the extension the paper mentions but does
  not build ("the developed model can be extended to the associative cache
  case"); used by the associativity ablation bench.

Caches operate on *physical line numbers* (already translated by
:class:`repro.machine.vm.VirtualMemory`).  :func:`e_cache` builds the
one a :class:`~repro.machine.configs.MachineConfig` describes.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.machine.configs import MachineConfig

#: Listener signature: called with arrays of physical line numbers.
LineListener = Callable[[np.ndarray], None]

_EMPTY = np.empty(0, dtype=np.int64)


def _net_effect(installed, evicted):
    """Reduce raw install/evict logs of one batch to their net residency
    effect.

    Within a batch a line can be installed and then evicted (or evicted
    and reinstalled); listeners receive whole batches, so they must see
    only the net change or their residency bookkeeping would depend on
    intra-batch ordering that batching discards.  Residency is binary, so
    the net change per line is +1, -1 or 0.
    """
    counts = {}
    for pline in installed:
        counts[pline] = counts.get(pline, 0) + 1
    for pline in evicted:
        counts[pline] = counts.get(pline, 0) - 1
    net_in = [p for p, c in counts.items() if c > 0]
    net_out = [p for p, c in counts.items() if c < 0]
    return (
        np.asarray(net_in, dtype=np.int64),
        np.asarray(net_out, dtype=np.int64),
    )


class AccessResult:
    """Outcome of one access batch.

    ``installed``/``evicted`` are the *net* residency changes of the batch
    (see :func:`_net_effect`).  A ``__slots__`` class: every touch makes
    one, and most touches are a line or two.
    """

    __slots__ = ("refs", "hits", "misses", "installed", "evicted")

    def __init__(
        self,
        refs: int,
        hits: int,
        misses: int,
        installed: np.ndarray,
        evicted: np.ndarray,
    ) -> None:
        self.refs = refs
        self.hits = hits
        self.misses = misses
        self.installed = installed
        self.evicted = evicted

    def __repr__(self) -> str:
        return (
            f"AccessResult(refs={self.refs}, hits={self.hits}, "
            f"misses={self.misses}, installed={self.installed!r}, "
            f"evicted={self.evicted!r})"
        )


class CacheStats:
    """Cumulative counters shared by both cache organisations."""

    def __init__(self) -> None:
        self.refs = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @property
    def miss_rate(self) -> float:
        """Fraction of references that missed (0 if no references yet)."""
        return self.misses / self.refs if self.refs else 0.0

    def snapshot(self) -> dict:
        """A plain-dict copy, convenient for reports."""
        return {
            "refs": self.refs,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }


class _BaseCache:
    """Residency bookkeeping and listener plumbing common to both caches."""

    def __init__(self, size_bytes: int, line_bytes: int) -> None:
        if size_bytes <= 0 or line_bytes <= 0:
            raise ValueError("cache and line sizes must be positive")
        if size_bytes % line_bytes != 0:
            raise ValueError("cache size must be a whole number of lines")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.num_lines = size_bytes // line_bytes
        self.stats = CacheStats()
        self._install_listeners: List[LineListener] = []
        self._evict_listeners: List[LineListener] = []

    def on_install(self, listener: LineListener) -> None:
        """Register a callback invoked with each batch of installed lines."""
        self._install_listeners.append(listener)

    def on_evict(self, listener: LineListener) -> None:
        """Register a callback invoked with each batch of evicted lines.

        Invalidations are reported through the same callback: for footprint
        accounting, a line leaving the cache is a line leaving the cache.
        """
        self._evict_listeners.append(listener)

    def _notify(self, installed: np.ndarray, evicted: np.ndarray) -> None:
        if installed.size:
            for listener in self._install_listeners:
                listener(installed)
        if evicted.size:
            for listener in self._evict_listeners:
                listener(evicted)

    # -- interface subclasses must implement ------------------------------

    def access(self, lines: np.ndarray) -> AccessResult:
        """Access a batch of physical lines in order; returns the outcome."""
        raise NotImplementedError

    def invalidate(self, lines: np.ndarray) -> int:
        """Drop any resident copies of ``lines``, which are distinct;
        returns how many were."""
        raise NotImplementedError

    def resident_lines(self) -> np.ndarray:
        """Physical line numbers currently resident (unsorted)."""
        raise NotImplementedError

    def contains(self, pline: int) -> bool:
        """Whether a single physical line is resident."""
        raise NotImplementedError

    def flush(self) -> int:
        """Evict everything (used to flush state before a monitored phase,
        as the paper does for its 'work' threads in section 3.3); returns
        the number of lines evicted."""
        raise NotImplementedError


class DirectMappedCache(_BaseCache):
    """A physically indexed, physically tagged direct-mapped cache.

    A batch is priced whole, with no per-reference loop, and exactly as
    line-at-a-time replay would price it.  After a reference, its index
    holds its line, so within a batch each reference sees the line of the
    previous reference to its index, and the first reference to an index
    sees the line resident before the batch.  A stable sort by index lines
    up each index's references in batch order; a reference hits iff it
    sees its own line.  Each line maps to one index, so the batch's net
    residency change is, per index, the resident line before the batch
    out and the index's last line in, whenever the two differ.  A
    one-line batch or invalidation takes the same steps on Python scalars.
    """

    def __init__(self, size_bytes: int, line_bytes: int = 64) -> None:
        super().__init__(size_bytes, line_bytes)
        self._resident = np.full(self.num_lines, -1, dtype=np.int64)
        #: power-of-two caches index with a mask instead of a modulo (the
        #: hardware's trick, and measurably cheaper per batch)
        n = self.num_lines
        self._index_mask = n - 1 if n & (n - 1) == 0 else None

    def index_of(self, pline: int) -> int:
        """Cache index a physical line maps to."""
        if self._index_mask is not None:
            return pline & self._index_mask
        return pline % self.num_lines

    def _indices(self, plines: np.ndarray) -> np.ndarray:
        if self._index_mask is not None:
            return plines & self._index_mask
        return plines % self.num_lines

    def access(self, lines: np.ndarray) -> AccessResult:
        """Access a batch of physical lines in order; returns the outcome.

        ``installed`` and ``evicted`` list distinct lines: in batch order
        when the batch's indices are distinct, else in index order.
        """
        plines = np.asarray(lines, dtype=np.int64)
        refs = plines.size
        if refs == 1:
            return self._access_line(plines.item())
        if refs == 0:
            return AccessResult(0, 0, 0, _EMPTY, _EMPTY)
        resident = self._resident
        idx = self._indices(plines)
        order = idx.argsort(kind="stable")
        sorted_idx = idx[order]
        # new_group[k]: sorted reference k + 1 starts another index
        new_group = sorted_idx[1:] != sorted_idx[:-1]
        if new_group.all():
            # distinct indices: one gather, compare and scatter
            before = resident[idx]
            miss = before != plines
            installed = plines[miss]
            evicted = before[miss]
            resident[idx[miss]] = installed
            hits = refs - installed.size
        else:
            plines = plines[order]
            firsts = np.flatnonzero(np.concatenate(([True], new_group)))
            at = sorted_idx[firsts]
            before = resident[at]
            seen = np.empty(refs, dtype=np.int64)
            seen[1:] = plines[:-1]
            seen[firsts] = before
            hits = int(np.count_nonzero(seen == plines))
            after = plines[np.append(firsts[1:], refs) - 1]
            changed = before != after
            installed = after[changed]
            evicted = before[changed]
            resident[at[changed]] = installed
        evicted = evicted[evicted >= 0]
        misses = refs - hits
        stats = self.stats
        stats.refs += refs
        stats.hits += hits
        stats.misses += misses
        self._notify(installed, evicted)
        return AccessResult(refs, hits, misses, installed, evicted)

    def _access_line(self, pline: int) -> AccessResult:
        """A one-line batch, in Python scalars: most touches are one line,
        and a numpy call on a one-element array costs more than the
        whole lookup."""
        stats = self.stats
        stats.refs += 1
        index = self.index_of(pline)
        before = self._resident.item(index)
        if before == pline:
            stats.hits += 1
            return AccessResult(1, 1, 0, _EMPTY, _EMPTY)
        self._resident[index] = pline
        stats.misses += 1
        installed = np.array((pline,), dtype=np.int64)
        evicted = (
            np.array((before,), dtype=np.int64) if before >= 0 else _EMPTY
        )
        self._notify(installed, evicted)
        return AccessResult(1, 0, 1, installed, evicted)

    def invalidate(self, lines: np.ndarray) -> int:
        plines = np.asarray(lines, dtype=np.int64)
        if plines.size == 1:
            pline = plines.item()
            index = self.index_of(pline)
            if self._resident.item(index) != pline:
                return 0
            self._resident[index] = -1
            self.stats.invalidations += 1
            self._notify(_EMPTY, np.array((pline,), dtype=np.int64))
            return 1
        if plines.size == 0:
            return 0
        idx = self._indices(plines)
        match = self._resident[idx] == plines
        victims = plines[match]
        self._resident[idx[match]] = -1
        self.stats.invalidations += victims.size
        self._notify(_EMPTY, victims)
        return int(victims.size)

    def resident_lines(self) -> np.ndarray:
        return self._resident[self._resident >= 0]

    def contains(self, pline: int) -> bool:
        return bool(self._resident[self.index_of(pline)] == pline)

    def flush(self) -> int:
        victims = self.resident_lines().copy()
        self._resident[:] = -1
        self._notify(_EMPTY, victims)
        return int(victims.size)


class SetAssociativeCache(_BaseCache):
    """An LRU set-associative cache (the model-extension case).

    ``ways=1`` degenerates to direct-mapped behaviour and is checked against
    :class:`DirectMappedCache` by the property tests.

    The simulator state is kept in plain per-set Python lists rather than
    numpy arrays: the access loop is inherently per-reference (LRU state
    changes between references), and element-wise numpy operations on
    ``ways``-sized rows cost an order of magnitude more than list
    scans at the associativities that occur in practice (2-16).  The
    ``cache_assoc_access`` benchmark in ``repro.bench`` guards this.
    """

    def __init__(self, size_bytes: int, line_bytes: int = 64, ways: int = 4) -> None:
        super().__init__(size_bytes, line_bytes)
        if ways <= 0 or self.num_lines % ways != 0:
            raise ValueError("ways must divide the number of lines")
        self.ways = ways
        self.num_sets = self.num_lines // ways
        # per set: tags (-1 = empty) and LRU stamps
        self._tags: List[List[int]] = [
            [-1] * ways for _ in range(self.num_sets)
        ]
        self._stamp: List[List[int]] = [
            [0] * ways for _ in range(self.num_sets)
        ]
        self._clock = 0

    def access(self, lines: np.ndarray) -> AccessResult:
        plines = np.asarray(lines, dtype=np.int64)
        hits = 0
        installed: List[int] = []
        evicted: List[int] = []
        num_sets = self.num_sets
        tags = self._tags
        stamp = self._stamp
        clock = self._clock
        for pline in plines.tolist():
            s = pline % num_sets
            clock += 1
            row = tags[s]
            try:
                w = row.index(pline)
                hits += 1
            except ValueError:
                try:
                    w = row.index(-1)
                except ValueError:
                    srow = stamp[s]
                    w = srow.index(min(srow))
                    evicted.append(row[w])
                row[w] = pline
                installed.append(pline)
            stamp[s][w] = clock
        self._clock = clock
        net_in, net_out = _net_effect(installed, evicted)
        result = AccessResult(
            refs=plines.size,
            hits=hits,
            misses=len(installed),
            installed=net_in,
            evicted=net_out,
        )
        stats = self.stats
        stats.refs += result.refs
        stats.hits += result.hits
        stats.misses += result.misses
        self._notify(result.installed, result.evicted)
        return result

    def invalidate(self, lines: np.ndarray) -> int:
        victims: List[int] = []
        for pline in np.asarray(lines, dtype=np.int64).tolist():
            s = pline % self.num_sets
            row = self._tags[s]
            try:
                w = row.index(pline)
            except ValueError:
                continue
            row[w] = -1
            victims.append(pline)
        self.stats.invalidations += len(victims)
        self._notify(_EMPTY, np.asarray(victims, dtype=np.int64))
        return len(victims)

    def resident_lines(self) -> np.ndarray:
        flat = [tag for row in self._tags for tag in row if tag >= 0]
        return np.asarray(flat, dtype=np.int64)

    def contains(self, pline: int) -> bool:
        return pline in self._tags[pline % self.num_sets]

    def flush(self) -> int:
        victims = self.resident_lines()
        ways = self.ways
        for s in range(self.num_sets):
            self._tags[s] = [-1] * ways
            self._stamp[s] = [0] * ways
        self._notify(_EMPTY, victims)
        return int(victims.size)


def e_cache(config: MachineConfig) -> _BaseCache:
    """One cpu's E-cache for ``config``: LRU set-associative when
    ``l2_ways > 1``, direct-mapped (the model's domain) otherwise."""
    if config.l2_ways > 1:
        return SetAssociativeCache(
            config.l2_bytes, config.line_bytes, ways=config.l2_ways
        )
    return DirectMappedCache(config.l2_bytes, config.line_bytes)
