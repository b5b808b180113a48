"""repro: a reproduction of Weissman's ASPLOS 1998 thread-locality system.

"Performance Counters and State Sharing Annotations: a Unified Approach
to Thread Locality" combines three mechanisms:

1. an analytical **shared-state cache model** predicting per-thread cache
   footprints on-line from hardware miss counters
   (:mod:`repro.core.model`, :mod:`repro.core.markov`);
2. **sharing annotations** (``at_share``) describing inter-thread state
   overlap (:mod:`repro.core.sharing`);
3. two **locality scheduling policies** -- Largest Footprint First and
   smallest Cache-Reload raTio -- with O(d)-per-switch log-space priority
   updates (:mod:`repro.core.priorities`, :mod:`repro.sched`).

Because CPython threads offer no placement control, the entire evaluation
platform is simulated (:mod:`repro.machine`, :mod:`repro.threads`,
:mod:`repro.sim`); see DESIGN.md for the substitution argument and
EXPERIMENTS.md for paper-vs-measured results.

Quick start::

    from repro import Machine, Runtime, ULTRA1, make_lff
    from repro.threads import Touch, Compute, Sleep

    machine = Machine(ULTRA1)
    runtime = Runtime(machine, make_lff())
    region = runtime.alloc_lines("state", 100)

    def worker():
        for _ in range(10):
            yield Touch(region.lines())
            yield Compute(1000)
            yield Sleep(5000)

    runtime.at_create(worker, name="worker")
    runtime.run()
    print(machine.total_l2_misses(), "E-cache misses")
"""

from repro.core import (
    CRTScheme,
    LFFScheme,
    PrecomputedTables,
    SharedStateModel,
    SharingGraph,
)
from repro.machine import (
    E5000_8CPU,
    Machine,
    MachineConfig,
    SMALL,
    ULTRA1,
)
from repro.sched import FCFSScheduler, LocalityScheduler, make_crt, make_lff
from repro.sim import FootprintTracer, run_monitored, run_performance
from repro.threads import Runtime

__version__ = "1.0.0"

__all__ = [
    "CRTScheme",
    "E5000_8CPU",
    "FCFSScheduler",
    "FootprintTracer",
    "LFFScheme",
    "LocalityScheduler",
    "Machine",
    "MachineConfig",
    "PrecomputedTables",
    "Runtime",
    "SMALL",
    "SharedStateModel",
    "SharingGraph",
    "ULTRA1",
    "make_crt",
    "make_lff",
    "run_monitored",
    "run_performance",
]
