"""Extension bench: locality scheduling also preserves TLB locality.

The paper's introduction lists TLB misses among the locality costs of
fine-grained threading but evaluates only the E-cache.  With per-cpu
dTLBs modelled (64-entry fully associative, ~30-cycle misses), a thread
resuming on its previous processor finds its translations as well as its
lines -- so the locality policies should eliminate a large share of TLB
misses too, for free.
"""

from dataclasses import replace

from conftest import report

from repro.machine.configs import E5000_8CPU
from repro.machine.smp import Machine
from repro.sched import FCFSScheduler, make_lff
from repro.sim.report import format_table
from repro.threads.runtime import Runtime
from repro.workloads import TasksParams, TasksWorkload


def run_tlb_ablation(seed: int = 0):
    config = replace(E5000_8CPU, name="e5000-tlb", model_tlb=True)
    results = {}
    for factory in (FCFSScheduler, make_lff):
        scheduler = factory()
        machine = Machine(config, seed=seed)
        runtime = Runtime(machine, scheduler)
        workload = TasksWorkload(TasksParams())
        workload.build(runtime)
        runtime.run()
        results[scheduler.name] = {
            "l2_misses": machine.total_l2_misses(),
            "tlb_misses": sum(t.misses for t in machine.tlbs),
            "cycles": machine.time(),
        }
    return results


def format_tlb_ablation(results) -> str:
    base = results["fcfs"]
    rows = []
    for name, r in results.items():
        rows.append(
            (
                name,
                r["l2_misses"],
                r["tlb_misses"],
                100.0 * (1 - r["tlb_misses"] / base["tlb_misses"]),
                base["cycles"] / r["cycles"],
            )
        )
    return format_table(
        ["policy", "E-misses", "TLB misses", "TLB misses eliminated %",
         "rel perf"],
        rows,
        title="Ablation: TLB locality under the scheduling policies "
        "(tasks, 8-cpu E5000, dTLBs modelled)",
    )


def test_tlb_ablation():
    results = run_tlb_ablation()
    report("ablation_tlb", format_tlb_ablation(results))

    base = results["fcfs"]
    lff = results["lff"]
    # cache affinity is translation affinity: most TLB misses go away too
    assert lff["tlb_misses"] < 0.5 * base["tlb_misses"]
