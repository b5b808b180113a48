"""Related-work bench: static mapping + load balancing ([15]) vs the
counter/annotation approach.

The paper cites Markatos & LeBlanc's memory-conscious scheduling (static
initial mapping for locality, dynamic balancing for load) as the prior
alternative.  Shape targets on the E5000: plain stickiness recovers a
real fraction of the affinity win on stable thread pools (tasks) with
zero hardware support -- and the model-driven policy stays well ahead,
which is the paper's reason to exist.
"""

from conftest import report

from repro.experiments.fig8 import default_workloads
from repro.machine.configs import E5000_8CPU
from repro.sched import SCHEDULERS
from repro.sim.driver import run_performance
from repro.sim.report import format_table


def run_static_comparison(seed: int = 0):
    results = {}
    for wl_name, factory in default_workloads().items():
        results[wl_name] = {}
        for policy in ("fcfs", "static", "lff"):
            results[wl_name][policy] = run_performance(
                factory(), E5000_8CPU, SCHEDULERS[policy](), seed=seed
            )
    return results


def format_static_comparison(results) -> str:
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
                )
            )
    return format_table(
        ["workload", "policy", "E-misses", "eliminated %", "rel perf"],
        rows,
        title="Related work [15]: static mapping + balancing vs LFF "
        "(8-cpu E5000)",
    )


def test_static_mapping_comparison():
    results = run_static_comparison()
    report("related_static", format_static_comparison(results))

    tasks = results["tasks"]
    static_elim = tasks["static"].misses_eliminated_vs(tasks["fcfs"])
    lff_elim = tasks["lff"].misses_eliminated_vs(tasks["fcfs"])
    # stickiness alone helps a stable thread pool...
    assert static_elim > 0.15
    # ...but the counter-driven model is decisively ahead
    assert lff_elim > static_elim + 0.3
