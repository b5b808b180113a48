"""Result containers and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass
class PerfResult:
    """Outcome of one performance run (one workload under one policy)."""

    workload: str
    scheduler: str
    num_cpus: int
    cycles: int
    instructions: int
    l2_misses: int
    l2_refs: int
    context_switches: int
    steals: int = 0
    #: the scheduler stopped trusting its counters and fell back to FCFS
    #: ordering (LFF/CRT only); its numbers are then not the policy's
    degraded: bool = False
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def mpi(self) -> float:
        """E-cache misses per instruction."""
        return self.l2_misses / max(1, self.instructions)

    def misses_eliminated_vs(self, base: "PerfResult") -> float:
        """Fraction of the baseline's E-cache misses this run avoided
        (the paper's "E-misses eliminated %"); negative means more."""
        if base.l2_misses == 0:
            return 0.0
        return 1.0 - self.l2_misses / base.l2_misses

    def speedup_vs(self, base: "PerfResult") -> float:
        """Relative performance vs the baseline (>1 means faster)."""
        return base.cycles / max(1, self.cycles)


@dataclass
class MonitoredResult:
    """Footprint trace of one monitored work thread (Figures 5-7)."""

    app: str
    language: str
    cache_lines: int
    #: cumulative work-phase miss count at each sample
    misses: np.ndarray
    #: observed footprint (tracer ground truth) at each sample
    observed: np.ndarray
    #: model prediction E[F] = N * (1 - k**n) at each sample
    predicted: np.ndarray
    #: cumulative work-phase instructions at each sample
    instructions: np.ndarray

    @property
    def mean_absolute_error(self) -> float:
        """Mean |predicted - observed| in lines over the trace."""
        if self.misses.size == 0:
            return 0.0
        return float(np.mean(np.abs(self.predicted - self.observed)))

    @property
    def final_ratio(self) -> float:
        """predicted / observed at the end of the trace (>1 means the
        model overestimates, the Figure 7 signature)."""
        if self.observed.size == 0 or self.observed[-1] == 0:
            return float("inf")
        return float(self.predicted[-1] / self.observed[-1])

    @property
    def overestimation(self) -> float:
        """Mean signed (predicted - observed) in lines."""
        if self.misses.size == 0:
            return 0.0
        return float(np.mean(self.predicted - self.observed))


def mpi_series(
    instructions: np.ndarray, misses: np.ndarray, window: int = 20
) -> Tuple[np.ndarray, np.ndarray]:
    """Windowed misses-per-1000-instructions over a trace (Figure 6).

    Returns (instruction positions, MPI values); each value covers the
    preceding ``window`` samples.
    """
    if instructions.size <= window:
        return np.empty(0), np.empty(0)
    d_instr = instructions[window:] - instructions[:-window]
    d_miss = misses[window:] - misses[:-window]
    with np.errstate(divide="ignore", invalid="ignore"):
        mpi = np.where(d_instr > 0, 1000.0 * d_miss / np.maximum(d_instr, 1), 0.0)
    return instructions[window:], mpi
