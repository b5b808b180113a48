"""Figure 9: performance impact of locality scheduling on the 8-cpu
Enterprise 5000.

Expected shape: "locality scheduling eliminates 60-80% of all E-cache
misses for all considered applications.  The overall performance is
improved by factors of 1.45-2.12."  On the SMP the baseline FCFS queue
scatters rescheduled threads across processors, so even workloads whose
1-cpu FCFS order was good (photo) now benefit enormously.
"""

from __future__ import annotations

from typing import Dict

from repro.machine.configs import E5000_8CPU
from repro.experiments.fig8 import format_results, run_policies
from repro.sim.metrics import PerfResult


def run_fig9(seed: int = 0) -> Dict[str, Dict[str, PerfResult]]:
    """The 8-processor (E5000) sweep."""
    return run_policies(E5000_8CPU, seed=seed)


def format_fig9(results) -> str:
    return format_results(
        results, "Figure 9: locality scheduling on the 8-cpu Sun E5000"
    )
