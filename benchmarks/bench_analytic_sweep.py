"""Analytic cache backend against the replay cache on the sweep fixture.

The analytic backend (``--backend analytic``,
``src/repro/machine/analytic.py``) prices touch batches with the
closed-form reuse-distance model instead of replaying every reference
through the VM layer and the residency arrays.  This bench runs the
five sweep-scale fixture cells (large touch batches, one cpu, LFF --
see ``repro.bench.suites.analytic_sweep_cells``) under both backends.

- **ground truth** (asserted): the per-thread correctness signature
  (name, refs, instructions, final state) is bit-identical between
  backends for every cell -- the backend prices misses, it never
  changes what the programs did (miss-count *accuracy* is the oracle
  job's gate, with per-workload bounds; it is not asserted here);
- **speed** (printed, not asserted): each cell's time under both
  backends, and the ratio of the summed times.  The replay cache
  prices a whole batch without a per-reference loop, and on this
  fixture it runs about as fast as the analytic backend, so no speed
  floor above 1x holds; docs/BENCHMARKS.md records the measurements.

Timing is best-of-2: both runs are deterministic, so the minimum is the
least-noise sample and needs no steady-state detection.
"""

from conftest import report_suite

from repro.bench import RepeatPolicy, measure
from repro.bench.suites import analytic_sweep_cells
from repro.machine.configs import ULTRA1
from repro.machine.smp import Machine
from repro.sched import SCHEDULERS
from repro.sim.driver import workload_signature
from repro.threads.runtime import Runtime

#: deterministic simulation: the faster of two samples is the signal
BEST_OF_2 = RepeatPolicy(
    warmup=0, min_repeats=2, max_repeats=2, time_budget_s=300.0,
    steady_rel_spread=0.0,
)


def _run_cell(factory, backend: str):
    machine = Machine(ULTRA1, seed=0, backend=backend)
    runtime = Runtime(machine, SCHEDULERS["lff"](), engine="stepped")
    factory().build(runtime)
    runtime.run()
    return machine, runtime


def _counters(value):
    machine, runtime = value
    return {
        "events": float(runtime.events_executed),
        "context_switches": float(runtime.context_switches),
        "sim_refs": float(sum(c.l2.stats.refs for c in machine.cpus)),
        "sim_misses": float(machine.total_l2_misses()),
    }


def test_analytic_backend_sweep():
    cells = analytic_sweep_cells()
    total_sim = total_ana = 0.0
    lines = []
    for name, factory in cells:
        (m_sim, r_sim), sim = measure(
            f"sweep_sim_{name}", lambda: _run_cell(factory, "sim"),
            counters=_counters, policy=BEST_OF_2,
        )
        (m_ana, r_ana), ana = measure(
            f"sweep_analytic_{name}", lambda: _run_cell(factory, "analytic"),
            counters=_counters, policy=BEST_OF_2,
        )
        # ground truth is backend-invariant, per cell, bit-for-bit
        assert workload_signature(r_sim) == workload_signature(r_ana), (
            f"{name}: per-thread ground truth diverged across backends"
        )
        total_sim += sim.stats.min_s
        total_ana += ana.stats.min_s
        lines.append(
            f"{name}: sim {sim.stats.min_s:.3f}s vs analytic "
            f"{ana.stats.min_s:.3f}s -> "
            f"{sim.stats.min_s / ana.stats.min_s:.2f}x "
            f"(sim misses {m_sim.total_l2_misses():,}, "
            f"analytic {m_ana.total_l2_misses():,})"
        )
        report_suite(f"analytic_sweep_{name}", sim, ana)

    print(
        "\n".join(
            lines
            + [
                f"total: sim {total_sim:.3f}s vs analytic "
                f"{total_ana:.3f}s -> {total_sim / total_ana:.2f}x"
            ]
        )
    )
