"""Off-line trace analysis vs the on-line model (paper section 2.1).

The pre-history of the paper's model: Thiebaut & Stone needed footprints
as *inputs*; Agarwal et al. said they could be inferred "by analyzing
collected program traces off-line"; Falsafi & Wood extracted them from
repeated runs with cache flushes.  The paper's pitch is that an on-line
model fed by one counter value replaces all of that.

This experiment runs a monitored application three ways and compares:

- **observed**: the ground-truth tracer (what the paper's simulator saw);
- **on-line model**: ``N(1 − kⁿ)`` from the per-interval miss counts --
  storage cost: one precomputed table shared by all threads;
- **off-line replay**: record the thread's full reference trace, then
  replay it through a private direct-mapped cache -- storage cost: eight
  bytes per reference.

The off-line replay operates on *virtual* lines (a trace collector does
not see the VM's physical placement), so for conflict-heavy layouts it
mispredicts in its own way -- an extra argument the paper did not need to
make.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.machine.configs import ULTRA1
from repro.machine.smp import Machine
from repro.parallel import (
    ProgressFn,
    ResultCache,
    Shard,
    merged_values,
    run_shards,
)
from repro.sched.fcfs import FCFSScheduler
from repro.sim.driver import _AnalyticFootprintProbe, _WorkThreadSampler
from repro.sim.report import format_table
from repro.sim.trace import ReferenceTraceRecorder, footprint_curve_from_trace
from repro.sim.tracer import FootprintTracer
from repro.threads.runtime import Runtime
from repro.workloads import MONITORED_APPS


def _offline_shard(
    app: str, seed: int, backend: str = "sim"
) -> Dict[str, float]:
    """Worker entry point: the sweep for one monitored app."""
    return _run_one_app(app, seed, backend=backend)


def run_offline_comparison(
    apps: Sequence[str] = ("merge", "barnes"),
    seed: int = 0,
    jobs: int = 1,
    progress: Optional[ProgressFn] = None,
    cache: Optional[ResultCache] = None,
    backend: str = "sim",
) -> Dict[str, Dict[str, float]]:
    """Per app: observed-vs-model MAE, observed-vs-replay MAE, and costs.

    Each app's run is independent given (app, seed), so with
    ``jobs > 1`` the sweep fans out through :mod:`repro.parallel`; the
    merge reassembles the dict in ``apps`` order, bit-identical to the
    serial sweep.  ``cache`` resumes an interrupted sweep from the
    on-disk result cache -- it cannot change the merged report.

    ``backend`` selects the cache backend (sim/analytic, see
    docs/MODEL.md "The analytic backend") and is a shard parameter, so
    it is part of each shard's cache fingerprint: cached sim results
    never answer an analytic sweep.
    """
    shards = [
        Shard(
            index=i,
            key=f"offline/{backend}/{name}",
            fn="repro.experiments.offline:_offline_shard",
            params={"app": name, "seed": seed, "backend": backend},
        )
        for i, name in enumerate(apps)
    ]
    outcomes = run_shards(shards, jobs=jobs, progress=progress, cache=cache)
    return {
        name: metrics
        for name, metrics in zip(apps, merged_values(outcomes))
    }


def _run_one_app(
    name: str, seed: int, backend: str = "sim"
) -> Dict[str, float]:
    """The three-way comparison for one app (see the module docstring)."""
    app = MONITORED_APPS[name]()
    config = ULTRA1
    machine = Machine(config, seed=seed, backend=backend)
    runtime = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
    if backend == "analytic":
        tracer = _AnalyticFootprintProbe(machine)
    else:
        tracer = FootprintTracer(machine)
    sampler = _WorkThreadSampler(machine, tracer)
    recorder = ReferenceTraceRecorder(max_total_refs=20_000_000,
                                      strict=False)
    runtime.add_observer(recorder)
    runtime.add_observer(tracer)
    runtime.add_observer(sampler)

    app.setup(runtime)
    init = app.init_body()
    if init is not None:
        runtime.at_create(init, name="init")
        runtime.run()
    machine.flush_all()
    work_tid = runtime.at_create(app.work_body(), name="work")
    runtime.declare_state(work_tid, app.state_regions())
    sampler.arm(work_tid)
    runtime.run()

    misses = np.asarray(sampler.misses, dtype=np.int64)
    observed = np.asarray(sampler.observed, dtype=float)
    n_cache = config.l2_lines
    k = (n_cache - 1) / n_cache
    online = n_cache * (1.0 - k ** misses.astype(float))

    trace = recorder.trace(work_tid)
    replay_x, replay_y = footprint_curve_from_trace(trace, n_cache)
    # align the replay curve to the sampler's miss positions
    if replay_x.size:
        aligned = np.interp(misses, replay_x, replay_y)
    else:
        aligned = np.zeros_like(observed)

    return {
        "online_mae": float(np.mean(np.abs(online - observed))),
        "offline_mae": float(np.mean(np.abs(aligned - observed))),
        "trace_bytes": recorder.storage_bytes,
        "model_bytes": 8 * (16 * n_cache + 1 + n_cache),  # k^n + log F
        "trace_truncated": recorder.truncated,
    }


def format_offline_comparison(results: Dict[str, Dict[str, float]]) -> str:
    rows = []
    for name, r in results.items():
        rows.append(
            (
                name,
                r["online_mae"],
                r["offline_mae"],
                f"{r['trace_bytes'] / 1024:.0f} KiB",
                f"{r['model_bytes'] / 1024:.0f} KiB",
            )
        )
    return format_table(
        [
            "app",
            "on-line model MAE",
            "off-line replay MAE",
            "trace storage",
            "model tables",
        ],
        rows,
        title="Off-line trace analysis vs the on-line model (section 2.1 "
        "methodology comparison)",
    )
