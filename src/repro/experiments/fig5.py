"""Figure 5: observed vs predicted footprints for six applications.

The paper traces the reload transient of a single "work" thread per app
on a uniprocessor after a cache flush (section 3.3) and overlays the
model's prediction.  The qualitative findings to reproduce:

- C (SPLASH-2-like) apps: "the predicted footprints are somewhat larger
  than those observed ... due to higher clustering of references than
  that expected by the model";
- Sather apps: "generally good correspondence between the predicted and
  observed footprints".
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.driver import run_monitored
from repro.sim.metrics import MonitoredResult
from repro.sim.report import format_table
from repro.workloads import MONITORED_APPS


def run_fig5(
    apps: List[str] = None, seed: int = 0
) -> Dict[str, MonitoredResult]:
    """Trace every (requested) Figure 5 application."""
    names = apps or list(MONITORED_APPS)
    results = {}
    for name in names:
        app = MONITORED_APPS[name]()
        results[name] = run_monitored(app, seed=seed)
    return results


def format_fig5(results: Dict[str, MonitoredResult]) -> str:
    """The per-app accuracy summary rows."""
    rows = []
    for name, res in results.items():
        rows.append(
            (
                name,
                res.language,
                int(res.misses[-1]) if res.misses.size else 0,
                int(res.observed[-1]) if res.observed.size else 0,
                float(res.predicted[-1]) if res.predicted.size else 0.0,
                res.final_ratio,
                res.mean_absolute_error,
            )
        )
    return format_table(
        [
            "app",
            "lang",
            "misses",
            "observed[lines]",
            "predicted[lines]",
            "pred/obs",
            "MAE[lines]",
        ],
        rows,
        title="Figure 5: observed vs predicted work-thread footprints",
    )
