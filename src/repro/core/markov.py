"""The Appendix's Markov-chain derivation, executable.

The paper models the cached state of a dependent thread ``C`` while thread
``A`` takes misses as a birth-death Markov chain over states
``i = 0 .. N`` (the number of C's lines resident).  A single miss by A
moves the chain:

- up, with probability ``p_{i,i+1} = q * (N - i) / N`` (the new line is
  shared with C and lands on a non-C line);
- down, with probability ``p_{i,i-1} = (1 - q) * i / N`` (the new line is
  not shared and evicts a C line);
- otherwise it stays (shared-over-C or unshared-over-non-C).

The key algebraic fact (used to telescope the matrix power) is that the
identity vector ``T0 = [0, 1, ..., N]`` satisfies ``M T0 = k T0 + q e``
with ``k = (N-1)/N``, which yields the closed form

    E_n[F_C] = q*N - (q*N - S_C) * k**n

This module provides the transition matrix, exact expectation by repeated
matrix-vector products, and the chain's stationary distribution
(Binomial(N, q)), all of which the test suite checks against the closed
form in :mod:`repro.core.model`.
"""

from __future__ import annotations

import numpy as np


def dependent_transition_matrix(num_lines: int, q: float) -> np.ndarray:
    """The (N+1) x (N+1) tri-diagonal generator matrix M.

    ``m[i, j]`` is the probability that one miss by the running thread
    moves C's resident-line count from ``i`` to ``j``.
    """
    if num_lines < 1:
        raise ValueError("need at least one cache line")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"sharing coefficient must be in [0, 1], got {q}")
    n = num_lines
    i = np.arange(n + 1, dtype=float)
    up = q * (n - i) / n  # p_{i,i+1}
    down = (1.0 - q) * i / n  # p_{i,i-1}
    stay = 1.0 - up - down
    m = np.zeros((n + 1, n + 1))
    m[np.arange(n + 1), np.arange(n + 1)] = stay
    m[np.arange(n), np.arange(1, n + 1)] = up[:-1]
    m[np.arange(1, n + 1), np.arange(n)] = down[1:]
    return m


def expected_footprint_markov(
    num_lines: int, q: float, initial: int, misses: int
) -> float:
    """Exact E[F_C] after ``misses`` misses, by iterating the chain.

    Uses the expectation-vector recurrence ``T <- M T`` starting from
    ``T0 = [0..N]`` (so ``T_n[S_C]`` is the answer), which is O(N) per
    step thanks to the tri-diagonal structure.
    """
    if not 0 <= initial <= num_lines:
        raise ValueError(f"initial footprint must be in [0, {num_lines}]")
    if misses < 0:
        raise ValueError("miss count must be non-negative")
    n = num_lines
    i = np.arange(n + 1, dtype=float)
    up = q * (n - i) / n
    down = (1.0 - q) * i / n
    stay = 1.0 - up - down
    t = i.copy()
    for _ in range(misses):
        # (M t)_i = down_i * t_{i-1} + stay_i * t_i + up_i * t_{i+1}
        shifted_down = np.empty_like(t)
        shifted_down[0] = 0.0
        shifted_down[1:] = t[:-1]
        shifted_up = np.empty_like(t)
        shifted_up[-1] = 0.0
        shifted_up[:-1] = t[1:]
        t = down * shifted_down + stay * t + up * shifted_up
    return float(t[initial])


def expectation_curve(
    num_lines: int, q: float, initial: int, max_misses: int
) -> np.ndarray:
    """``E[F_C]`` for every miss count ``n = 0 .. max_misses`` at once.

    One chain iteration yields the whole curve, so exhaustive sweeps (the
    model checker's brute-force validation of the closed form) cost
    O(N * max_misses) instead of O(N * max_misses**2) repeated calls to
    :func:`expected_footprint_markov`.
    """
    if not 0 <= initial <= num_lines:
        raise ValueError(f"initial footprint must be in [0, {num_lines}]")
    if max_misses < 0:
        raise ValueError("miss count must be non-negative")
    n = num_lines
    i = np.arange(n + 1, dtype=float)
    up = q * (n - i) / n
    down = (1.0 - q) * i / n
    stay = 1.0 - up - down
    t = i.copy()
    curve = np.empty(max_misses + 1, dtype=float)
    curve[0] = t[initial]
    for step in range(1, max_misses + 1):
        shifted_down = np.empty_like(t)
        shifted_down[0] = 0.0
        shifted_down[1:] = t[:-1]
        shifted_up = np.empty_like(t)
        shifted_up[-1] = 0.0
        shifted_up[:-1] = t[1:]
        t = down * shifted_down + stay * t + up * shifted_up
        curve[step] = t[initial]
    return curve


def distribution_after(
    num_lines: int, q: float, initial: int, misses: int
) -> np.ndarray:
    """Full probability distribution over footprint sizes after ``misses``.

    Row vector ``pi_n = pi_0 M^n`` with ``pi_0`` a point mass at
    ``initial``; useful for variance and tail analysis beyond the paper's
    expectations.
    """
    m = dependent_transition_matrix(num_lines, q)
    pi = np.zeros(num_lines + 1)
    pi[initial] = 1.0
    for _ in range(misses):
        pi = pi @ m
    return pi


def footprint_std(
    num_lines: int, q: float, initial: int, misses: int
) -> float:
    """Standard deviation of the dependent footprint after ``misses``.

    The paper schedules on expectations alone; the chain's full
    distribution quantifies when that is safe: the stationary spread is
    ``sqrt(N q (1-q))`` -- about 45 lines for N = 8192, q = 0.5 -- i.e.
    under 1% of a large E-cache, which is why expectation-based
    priorities rank threads reliably.
    """
    pi = distribution_after(num_lines, q, initial, misses)
    support = np.arange(num_lines + 1, dtype=float)
    mean = float(pi @ support)
    return float(np.sqrt(pi @ (support - mean) ** 2))


def stationary_distribution(num_lines: int, q: float) -> np.ndarray:
    """The chain's stationary distribution: Binomial(N, q).

    In steady state each cache line independently holds C-shared data with
    probability ``q``, so the resident count is Binomial(N, q) -- whose
    mean ``q*N`` is exactly the closed form's asymptote.
    """
    # deferred: scipy is optional, and only this function needs it
    from scipy import stats

    if not 0.0 <= q <= 1.0:
        raise ValueError(f"sharing coefficient must be in [0, 1], got {q}")
    return stats.binom.pmf(np.arange(num_lines + 1), num_lines, q)
