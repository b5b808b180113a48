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
from repro.parallel import (
    ProgressFn,
    ResultCache,
    Shard,
    merged_values,
    run_shards,
)
from repro.sim.driver import monitor_work_thread
from repro.sim.report import format_table
from repro.sim.trace import ReferenceTraceRecorder, footprint_curve_from_trace
from repro.workloads import MONITORED_APPS


def _offline_shard(app: str, seed: int) -> Dict[str, float]:
    """Worker entry point: the sweep for one monitored app."""
    return _run_one_app(app, seed)


def run_offline_comparison(
    apps: Sequence[str] = ("merge", "barnes"),
    seed: int = 0,
    jobs: int = 1,
    progress: Optional[ProgressFn] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[str, Dict[str, float]]:
    """Per app: observed-vs-model MAE, observed-vs-replay MAE, and costs.

    Each app's run is independent given (app, seed), so with
    ``jobs > 1`` the sweep fans out through :mod:`repro.parallel`; the
    merge reassembles the dict in ``apps`` order, bit-identical to the
    serial sweep.  ``cache`` resumes an interrupted sweep from the
    on-disk result cache -- it cannot change the merged report.
    """
    shards = [
        Shard(
            index=i,
            key=f"offline/{name}",
            fn="repro.experiments.offline:_offline_shard",
            params={"app": name, "seed": seed},
        )
        for i, name in enumerate(apps)
    ]
    outcomes = run_shards(shards, jobs=jobs, progress=progress, cache=cache)
    return {
        name: metrics
        for name, metrics in zip(apps, merged_values(outcomes))
    }


def _run_one_app(name: str, seed: int) -> Dict[str, float]:
    """The three-way comparison for one app (see the module docstring)."""
    config = ULTRA1
    recorder = ReferenceTraceRecorder(max_total_refs=20_000_000,
                                      strict=False)
    sampler = monitor_work_thread(
        MONITORED_APPS[name](), config, seed, observers=(recorder,)
    )

    misses = np.asarray(sampler.misses, dtype=np.int64)
    observed = np.asarray(sampler.observed, dtype=float)
    n_cache = config.l2_lines
    k = (n_cache - 1) / n_cache
    online = n_cache * (1.0 - k ** misses.astype(float))

    trace = recorder.trace(sampler.watch_tid)
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
