"""The associative-cache extension of the shared-state model.

The paper scopes its model to direct-mapped caches and notes "the
developed model can be extended to the associative cache case (although
the analytical results are likely to be more complex with a higher
runtime overhead)" (section 2.1).  This module carries out that
extension for W-way LRU caches and quantifies exactly the predicted
complexity/overhead trade-off.

Derivation.  Let the cache have ``S = N / W`` sets of ``W`` ways.  Under
the paper's independence assumption, each miss by the running thread
lands in a uniformly random set.  Consider a line of a *sleeping* thread
B resident in some set.  It is evicted when it becomes the LRU victim --
i.e. once its set has received ``W`` misses since the line was last
touched (each miss either fills an invalid way or evicts the current LRU;
after W misses a line untouched since the start is gone).  The number of
misses its set receives out of ``n`` total is Binomial(n, 1/S), so the
survival probability is the binomial tail

    P(survive n) = P(Binom(n, 1/S) <= W - 1)

and ``E[F_B] = S_B * P(survive n)``.  At ``W = 1`` this is
``P(Binom(n, 1/N) = 0) = (1 - 1/N)^n = k^n`` -- exactly the paper's
case 2, so the extension strictly generalises the original model.

For the *running* thread A (case 1), a set holding ``j`` of A's lines
loses none of them to A's own misses until the set fills; with every
resident line of A recently touched relative to incoming misses, A's
lines are at the MRU end and survive.  Growth is then limited only by
set collisions among A's own lines:

    E[F_A](n) = N - (N - S_A) * E_set[survival]  ~  N - (N - S_A) * k^n

remains a good approximation because A's misses displace *other* threads'
lines first; the associative ablation bench measures the residual error.

The ``W``-way survival requires a binomial tail per (n, W) pair -- the
"higher runtime overhead" the paper predicted.  :class:`AssocTables`
precomputes the tails so the per-switch cost stays a table lookup, at a
memory cost W times the direct-mapped table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

ArrayLike = Union[int, float, np.ndarray]


@dataclass(frozen=True)
class AssociativeStateModel:
    """Expected footprints in a W-way LRU cache of ``num_lines`` lines."""

    num_lines: int
    ways: int = 1

    def __post_init__(self) -> None:
        if self.num_lines < 2:
            raise ValueError("the model needs a cache of at least 2 lines")
        if self.ways < 1 or self.num_lines % self.ways != 0:
            raise ValueError("ways must divide the number of cache lines")

    @property
    def num_sets(self) -> int:
        """S = N / W."""
        return self.num_lines // self.ways

    def survival(self, misses: ArrayLike) -> ArrayLike:
        """P(an untouched resident line survives ``n`` foreign misses).

        The binomial tail P(Binom(n, 1/S) <= W-1); reduces to k**n for
        the direct-mapped case.
        """
        # deferred: scipy is optional, and only this model needs it
        from scipy import stats

        n = np.asarray(misses, dtype=float)
        if np.any(n < 0):
            raise ValueError("miss counts must be non-negative")
        p_set = 1.0 / self.num_sets
        out = stats.binom.cdf(self.ways - 1, n, p_set)
        return float(out) if out.ndim == 0 else out

    def expected_independent(
        self, initial: ArrayLike, misses: ArrayLike
    ) -> ArrayLike:
        """Case 2 for a W-way cache: E[F_B] = S_B * P(survive n)."""
        initial = np.asarray(initial, dtype=float)
        if np.any(initial < 0) or np.any(initial > self.num_lines):
            raise ValueError("initial footprint out of range")
        return initial * self.survival(misses)

    def expected_running(self, initial: ArrayLike, misses: ArrayLike) -> ArrayLike:
        """Case 1 for a W-way cache (approximation; see module docstring)."""
        initial = np.asarray(initial, dtype=float)
        if np.any(initial < 0) or np.any(initial > self.num_lines):
            raise ValueError("initial footprint out of range")
        n_lines = self.num_lines
        k = (n_lines - 1) / n_lines
        n = np.asarray(misses, dtype=float)
        return n_lines - (n_lines - initial) * np.exp(n * math.log(k))

    def expected_dependent(
        self, initial: ArrayLike, q: float, misses: ArrayLike
    ) -> ArrayLike:
        """Case 3 for a W-way cache.

        Interpolates between growth toward q*N (shared installs, which
        LRU protects like the runner's own lines) and the W-way decay of
        the unshared part -- the same convex structure as the paper's
        closed form, with the associative survival in place of k**n.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"sharing coefficient must be in [0, 1], got {q}")
        initial = np.asarray(initial, dtype=float)
        if np.any(initial < 0) or np.any(initial > self.num_lines):
            raise ValueError("initial footprint out of range")
        target = q * self.num_lines
        return target - (target - initial) * self.survival(misses)

    def half_life(self) -> float:
        """Misses for an independent footprint to halve (numeric)."""
        lo, hi = 0.0, float(64 * self.num_lines * self.ways)
        for _ in range(64):
            mid = (lo + hi) / 2
            if self.survival(mid) > 0.5:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


class AssocTables:
    """Precomputed W-way survival probabilities (the runtime fast path).

    The direct-mapped scheme needs one k**n table; the W-way scheme needs
    the binomial tail for every n up to the horizon -- the concrete
    "higher runtime overhead" of the extension.  Lookup cost stays O(1).
    """

    def __init__(self, num_lines: int, ways: int, max_misses: int = None):
        self.model = AssociativeStateModel(num_lines, ways)
        if max_misses is None:
            # survival becomes negligible within a few W*N misses
            max_misses = 16 * num_lines
        self.max_misses = max_misses
        self._table = np.asarray(
            self.model.survival(np.arange(max_misses + 1)), dtype=float
        )

    def survival(self, misses: int) -> float:
        """Table lookup; 0.0 beyond the horizon."""
        if misses < 0:
            raise ValueError("miss counts must be non-negative")
        if misses > self.max_misses:
            return 0.0
        return float(self._table[misses])

    @property
    def table_bytes(self) -> int:
        """Memory footprint of the table (the overhead being paid)."""
        return self._table.nbytes
