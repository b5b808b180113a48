"""Figure 6: average E-cache misses per 1000 instructions over time.

"Unblocking threads usually experience bursts of reload transient misses
followed by a period of a relatively stable number of misses" -- the MPI
series should start high (the reload transient) and settle."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.sim.driver import run_monitored
from repro.sim.metrics import MonitoredResult, mpi_series
from repro.sim.report import format_series, format_table
from repro.workloads import MONITORED_APPS


def run_fig6(
    apps: List[str] = None,
    window: int = 40,
    seed: int = 0,
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """MPI-per-1000-instructions series for each app."""
    names = apps or list(MONITORED_APPS)
    series = {}
    for name in names:
        res = run_monitored(MONITORED_APPS[name](), seed=seed)
        series[name] = mpi_series(res.instructions, res.misses, window=window)
    return series


def transient_ratio(instructions: np.ndarray, mpi: np.ndarray) -> float:
    """Ratio of early MPI to late MPI (>1 means a visible reload burst)."""
    if mpi.size < 10:
        return 1.0
    head = float(np.mean(mpi[: max(1, mpi.size // 10)]))
    tail = float(np.mean(mpi[-max(1, mpi.size // 4):]))
    return head / max(tail, 1e-9)


def format_fig6(series) -> str:
    rows = []
    for name, (instr, mpi) in series.items():
        if mpi.size == 0:
            rows.append((name, 0.0, 0.0, 0.0))
            continue
        rows.append(
            (
                name,
                float(np.mean(mpi[: max(1, mpi.size // 10)])),
                float(np.mean(mpi[-max(1, mpi.size // 4):])),
                transient_ratio(instr, mpi),
            )
        )
    table = format_table(
        ["app", "MPI(early)", "MPI(late)", "burst ratio"],
        rows,
        title="Figure 6: E-cache misses per 1000 instructions",
    )
    details = []
    for name, (instr, mpi) in series.items():
        details.append(f"{name}: {format_series(instr, mpi)}")
    return table + "\n" + "\n".join(details)
