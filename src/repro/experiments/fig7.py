"""Figure 7: the applications whose footprints the model overestimates.

"For two considered applications, the footprints in the cache predicted
by the model were substantially larger than those observed" -- the Sather
typechecker (long run lengths, nonstationary behaviour) and raytrace
(conflict misses between bursts).

The module also evaluates the paper's proposed mitigation (section 3.4):
monitoring MPI on-line and switching prediction heuristics when a thread
turns nonstationary -- implemented as a simple freeze of footprint growth
once interval MPI falls below a threshold.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.sim.driver import run_monitored
from repro.sim.metrics import MonitoredResult
from repro.sim.report import format_table
from repro.workloads import ANOMALOUS_APPS


def run_fig7(seed: int = 0) -> Dict[str, MonitoredResult]:
    """Trace the two anomalous applications."""
    return {
        name: run_monitored(cls(), seed=seed)
        for name, cls in ANOMALOUS_APPS.items()
    }


def adaptive_prediction(
    result: MonitoredResult, mpi_threshold: float = 25.0, window: int = 50
) -> np.ndarray:
    """Re-predict with the paper's suggested MPI heuristic switch.

    While windowed MPI (misses per 1000 instructions) stays above the
    threshold the standard model runs; once it drops below (nonstationary
    steady state, or conflict-dominated churn), footprint growth is frozen
    at its current predicted level.
    """
    misses = result.misses
    instr = result.instructions
    n_cache = result.cache_lines
    k = (n_cache - 1) / n_cache
    out = np.empty(misses.size, dtype=float)
    frozen_at = None
    for i in range(misses.size):
        lo = max(0, i - window)
        d_instr = instr[i] - instr[lo]
        d_miss = misses[i] - misses[lo]
        mpi = 1000.0 * d_miss / max(1, d_instr)
        if frozen_at is None and i > window and mpi < mpi_threshold:
            frozen_at = n_cache * (1.0 - k ** float(misses[i]))
        if frozen_at is None:
            out[i] = n_cache * (1.0 - k ** float(misses[i]))
        else:
            out[i] = frozen_at
    return out


def format_fig7(results: Dict[str, MonitoredResult]) -> str:
    rows = []
    for name, res in results.items():
        adaptive = adaptive_prediction(res)
        base_err = res.mean_absolute_error
        adaptive_err = float(np.mean(np.abs(adaptive - res.observed)))
        rows.append(
            (
                name,
                int(res.misses[-1]),
                int(res.observed[-1]),
                float(res.predicted[-1]),
                res.final_ratio,
                base_err,
                adaptive_err,
            )
        )
    return format_table(
        [
            "app",
            "misses",
            "observed",
            "predicted",
            "pred/obs",
            "MAE(model)",
            "MAE(adaptive)",
        ],
        rows,
        title="Figure 7: overestimated footprints (+ MPI-switch heuristic)",
    )
