"""``repro.parallel``: the deterministic sharded execution engine.

Every heavy driver in this repository -- the fault campaign, the DPOR
explorer, the experiment sweeps, ``repro bench run`` -- is a fan-out
over independent cells: pure functions of ``(callable, seed, params)``.
This package runs those cells on this host's process pool and merges
the results so that an ``N``-worker run is **bit-identical** to the
serial run: work is partitioned into
:class:`~repro.parallel.shard.Shard` values keyed by a stable ordinal,
workers receive nothing but the shard's picklable parameters, and the
merge re-sorts outcomes by shard key before anything downstream sees
them.

Robustness follows the fault-campaign playbook (``docs/PARALLEL.md``):

- *timeouts* on results are simulated-step budgets enforced **inside**
  shards by the existing :class:`~repro.sim.driver.Watchdog` machinery,
  so a hung cell becomes a typed diagnostic in that shard's result
  instead of a wall-clock kill that would vary run to run;
- a *crashed worker* (or a shard that raises) is retried, and each
  failed attempt's error is kept in ``ShardOutcome.history``;
- *partial-results mode* reports which shards failed instead of dying;
- the *result cache* (``cache=``,
  :class:`~repro.parallel.cache.ResultCache`) makes campaigns
  resumable: finished cells are content-addressed on disk and a re-run
  executes only changed or missing ones.
"""

from repro.parallel.cache import ResultCache
from repro.parallel.engine import (
    ProgressFn,
    merged_values,
    run_shards,
)
from repro.parallel.shard import (
    Shard,
    ShardError,
    ShardOutcome,
    execute_shard,
    resolve_callable,
)

__all__ = [
    "ProgressFn",
    "ResultCache",
    "Shard",
    "ShardError",
    "ShardOutcome",
    "execute_shard",
    "merged_values",
    "resolve_callable",
    "run_shards",
]
