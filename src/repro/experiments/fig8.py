"""Figure 8: performance impact of locality scheduling on one processor.

FCFS is the base case (relative performance 1.0).  Expected shape
(paper's Figure 8 + Table 5, 1-cpu column):

- ``tasks``: both policies eliminate ~90% of E-cache misses and run >2x
  faster (disjoint footprints, counter-driven affinity only);
- ``merge``: large gains, annotation-driven (~57% misses, ~1.6x);
- ``photo``: FCFS order is already cache-optimal; locality policies pay
  for their data structures (about -1% misses, ~0.97x);
- ``tsp``: compulsory initialisation misses dominate; only ~12% of misses
  go away, ~1.0x.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.machine.configs import ULTRA1, MachineConfig
from repro.sched import SCHEDULERS
from repro.sim.driver import run_performance
from repro.sim.metrics import PerfResult
from repro.sim.report import format_table
from repro.workloads import (
    MergeParams,
    MergeWorkload,
    PhotoParams,
    PhotoWorkload,
    TasksParams,
    TasksWorkload,
    TspParams,
    TspWorkload,
)

#: workload factories at the default (scaled) Table 4 parameters
def default_workloads() -> Dict[str, Callable]:
    return {
        "tasks": lambda: TasksWorkload(TasksParams()),
        "merge": lambda: MergeWorkload(MergeParams()),
        "photo": lambda: PhotoWorkload(PhotoParams()),
        "tsp": lambda: TspWorkload(TspParams()),
    }


def run_policies(
    config: MachineConfig,
    workloads: Optional[Dict[str, Callable]] = None,
    policies: List[str] = ("fcfs", "lff", "crt"),
    seed: int = 0,
) -> Dict[str, Dict[str, PerfResult]]:
    """results[workload][policy] for the given machine."""
    workloads = workloads or default_workloads()
    results: Dict[str, Dict[str, PerfResult]] = {}
    for wl_name, factory in workloads.items():
        results[wl_name] = {}
        for policy in policies:
            scheduler = SCHEDULERS[policy]()
            results[wl_name][policy] = run_performance(
                factory(), config, scheduler, seed=seed
            )
    return results


def run_fig8(seed: int = 0) -> Dict[str, Dict[str, PerfResult]]:
    """The uniprocessor (Ultra-1) sweep."""
    return run_policies(ULTRA1, seed=seed)


def format_results(
    results: Dict[str, Dict[str, PerfResult]], title: str
) -> str:
    """Rows matching the paper's bar charts: total E-misses (relative to
    FCFS) and relative performance for each policy."""
    rows = []
    for wl_name, by_policy in results.items():
        base = by_policy["fcfs"]
        for policy, res in by_policy.items():
            rows.append(
                (
                    wl_name,
                    policy,
                    res.l2_misses,
                    100.0 * res.misses_eliminated_vs(base),
                    res.speedup_vs(base),
                    res.context_switches,
                )
            )
    return format_table(
        [
            "workload",
            "policy",
            "E-misses",
            "eliminated%",
            "rel.perf",
            "switches",
        ],
        rows,
        title=title,
    )


def format_fig8(results) -> str:
    return format_results(
        results, "Figure 8: locality scheduling on a 1-cpu Ultra-1"
    )
