"""The shard execution engine with a deterministic merge.

``run_shards`` executes a list of :class:`~repro.parallel.shard.Shard`
cells and returns one :class:`~repro.parallel.shard.ShardOutcome` per
shard, **sorted by shard index** -- never by completion order -- so the
caller sees exactly what a serial loop would have produced.  There is
one execution path with two shapes: inline in index order for
``jobs=1``, a process pool on this host for ``jobs>1``.

Orthogonally, ``cache=`` plugs in a content-addressed result cache
(:class:`~repro.parallel.cache.ResultCache`): shards whose
fingerprint (callable path, canonical params, code version) already has
a stored result are *not executed at all* -- their outcomes come back
``cached=True`` with ``attempts == 0`` -- and fresh ok results are
persisted, which is what makes a killed campaign resumable.

Failure semantics (see ``docs/PARALLEL.md``):

- a shard that raises inside the worker is reported back as a value
  (the worker wrapper catches it), so an exception never poisons the
  pool; the shard is retried up to ``retries`` more times, and every
  failed attempt's error is kept in ``ShardOutcome.history`` so crash
  reports are auditable;
- a worker *process* that dies (killed, segfaulted, ``os._exit``)
  breaks the pool; the engine rebuilds the pool and re-runs every shard
  whose result had not been collected, charging each an attempt --
  the pool cannot say which shard killed it, so the charge is
  conservative;
- shards still failing after their retry budget become ``failed``
  outcomes; with ``partial=False`` (the default) the run then raises
  :class:`~repro.parallel.shard.ShardError` listing them, with
  ``partial=True`` the failed outcomes are returned alongside the good
  ones so the caller can report exactly which cells were lost;
- a ``progress`` callback that raises is *isolated*: the exception is
  logged once and swallowed, because a bad observer must never abort
  or skew a campaign.

Hung shards are the job of the *shards themselves*: simulation cells
run under the existing :class:`~repro.sim.driver.Watchdog` step
budgets, which turn a livelock into a typed diagnostic deterministically
(the same number of simulated events every run) -- a wall-clock kill
here would make results depend on host timing, which the determinism
lint (DT003) exists to prevent.
"""

from __future__ import annotations

import logging
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.parallel.cache import ResultCache
from repro.parallel.shard import Shard, ShardError, ShardOutcome, execute_shard

logger = logging.getLogger("repro.parallel")

#: progress callback: (finished outcome, shards finished, shards total)
ProgressFn = Callable[[ShardOutcome, int, int], None]

#: worker payload statuses (in-worker exceptions travel as values so an
#: application error never breaks the pool)
_OK = "ok"
_RAISED = "raised"


def _worker(shard: Shard) -> Tuple[str, Any]:
    """Top-level worker entry point (must be picklable by name)."""
    try:
        return (_OK, execute_shard(shard))
    except Exception as exc:
        return (_RAISED, f"{type(exc).__name__}: {exc}")


def _check_shards(shards: Sequence[Shard]) -> List[Shard]:
    ordered = sorted(shards, key=lambda s: s.index)
    seen_index: Dict[int, str] = {}
    seen_key: Dict[str, int] = {}
    for shard in ordered:
        if shard.index in seen_index:
            raise ValueError(
                f"duplicate shard index {shard.index} "
                f"({seen_index[shard.index]!r} vs {shard.key!r})"
            )
        if shard.key in seen_key:
            raise ValueError(f"duplicate shard key {shard.key!r}")
        seen_index[shard.index] = shard.key
        seen_key[shard.key] = shard.index
    return ordered


class _Run:
    """Mutable bookkeeping for one ``run_shards`` invocation."""

    def __init__(
        self,
        total: int,
        retries: int,
        progress: Optional[ProgressFn],
    ) -> None:
        self.total = total
        self.retries = retries
        self.progress = progress
        self.outcomes: Dict[int, ShardOutcome] = {}
        self.attempts: Dict[int, int] = {}
        self.crashes: Dict[int, int] = {}
        self.errors: Dict[int, List[str]] = {}
        self.finished = 0
        self._progress_fault_logged = False

    def charge(self, shard: Shard) -> None:
        """Record one attempt."""
        self.attempts[shard.index] = self.attempts.get(shard.index, 0) + 1

    def exhausted(self, shard: Shard) -> bool:
        return self.attempts.get(shard.index, 0) > self.retries

    def record_error(self, shard: Shard, message: str) -> None:
        """Append one failed attempt's error to the shard's audit
        trail (``ShardOutcome.history``)."""
        self.errors.setdefault(shard.index, []).append(message)

    def _report(self, outcome: ShardOutcome) -> None:
        """Invoke the progress callback with faults isolated.

        A bad observer must never abort or skew a run: the first
        exception is logged (once per run), every exception is
        swallowed, and the callback keeps being invoked so a transient
        fault does not silence all later progress.
        """
        if self.progress is None:
            return
        try:
            self.progress(outcome, self.finished, self.total)
        except Exception:
            if not self._progress_fault_logged:
                self._progress_fault_logged = True
                logger.exception(
                    "progress callback raised on %s; callback errors "
                    "are isolated from the run (reported once)",
                    outcome.shard.key,
                )

    def finalize(
        self,
        shard: Shard,
        status: str,
        value: Any,
        error: str,
        cached: bool = False,
    ) -> None:
        outcome = ShardOutcome(
            shard=shard,
            status=status,
            value=value,
            error=error,
            attempts=self.attempts.get(shard.index, 1 if not cached else 0),
            worker_crashes=self.crashes.get(shard.index, 0),
            history=tuple(self.errors.get(shard.index, ())),
            cached=cached,
        )
        self.outcomes[shard.index] = outcome
        self.finished += 1
        self._report(outcome)

    def finalize_cached(self, shard: Shard, value: Any) -> None:
        """Settle a shard from the result cache: zero executions."""
        self.attempts[shard.index] = 0
        self.finalize(shard, "ok", value, "", cached=True)


def _run_serial(ordered: Sequence[Shard], run: _Run) -> None:
    for shard in ordered:
        while True:
            run.charge(shard)
            status, payload = _worker(shard)
            if status == _OK:
                run.finalize(shard, "ok", payload, "")
                break
            run.record_error(shard, str(payload))
            if run.exhausted(shard):
                run.finalize(shard, "failed", None, str(payload))
                break


def _run_pool(ordered: Sequence[Shard], jobs: int, run: _Run) -> None:
    pending: List[Shard] = list(ordered)
    while pending:
        executor = ProcessPoolExecutor(max_workers=jobs)
        retry: List[Shard] = []
        try:
            futures: List[Tuple[Shard, "Future[Tuple[str, Any]]"]] = [
                (shard, executor.submit(_worker, shard)) for shard in pending
            ]
            for shard, future in futures:
                run.charge(shard)
                try:
                    status, payload = future.result()
                except BrokenProcessPool:
                    # a worker died; the pool cannot attribute the death,
                    # so every uncollected shard is (conservatively)
                    # charged and retried
                    run.crashes[shard.index] = (
                        run.crashes.get(shard.index, 0) + 1
                    )
                    run.record_error(shard, "worker process died")
                    if run.exhausted(shard):
                        run.finalize(
                            shard, "failed", None,
                            "worker process died (after "
                            f"{run.attempts[shard.index]} attempt(s))",
                        )
                    else:
                        retry.append(shard)
                    continue
                if status == _OK:
                    run.finalize(shard, "ok", payload, "")
                    continue
                run.record_error(shard, str(payload))
                if run.exhausted(shard):
                    run.finalize(shard, "failed", None, str(payload))
                else:
                    retry.append(shard)
        finally:
            executor.shutdown(wait=True)
        pending = retry


def run_shards(
    shards: Sequence[Shard],
    jobs: int = 1,
    *,
    retries: int = 1,
    partial: bool = False,
    progress: Optional[ProgressFn] = None,
    cache: Optional[ResultCache] = None,
) -> List[ShardOutcome]:
    """Execute every shard; returns outcomes sorted by shard index.

    ``jobs=1`` runs the shards inline in index order through the exact
    same worker code path the pool uses, so the two modes cannot
    diverge.  ``retries`` is the extra attempts a crashed or raising
    shard gets (default 1: retry-once).  With ``partial=False`` any
    shard still failed after its retries raises :class:`ShardError`;
    with ``partial=True`` failures come back as outcomes with
    ``status == "failed"`` and ``value is None``.

    ``cache`` short-circuits shards whose content address already has a
    stored result (``cached=True``, ``attempts == 0`` outcomes) and
    persists fresh ok results.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    ordered = _check_shards(shards)
    run = _Run(total=len(ordered), retries=retries, progress=progress)

    to_run: Sequence[Shard] = ordered
    if cache is not None:
        uncached: List[Shard] = []
        for shard in ordered:
            hit, value = cache.lookup(shard)
            if hit:
                run.finalize_cached(shard, value)
            else:
                uncached.append(shard)
        to_run = uncached

    if to_run:
        if jobs == 1 or len(to_run) <= 1:
            _run_serial(to_run, run)
        else:
            _run_pool(to_run, jobs, run)
        if cache is not None:
            for shard in to_run:
                done = run.outcomes[shard.index]
                if done.ok:
                    cache.store(shard, done.value)

    outcomes = [run.outcomes[shard.index] for shard in ordered]
    if not partial:
        failed = [o for o in outcomes if not o.ok]
        if failed:
            detail = "; ".join(
                f"{o.shard.key}: {o.error} "
                f"(attempt {o.attempts}"
                + (f"; earlier: {'; '.join(o.history[:-1])}"
                   if len(o.history) > 1 else "")
                + ")"
                for o in failed[:5]
            )
            raise ShardError(
                f"{len(failed)}/{len(outcomes)} shard(s) failed: {detail}",
                outcomes,
            )
    return outcomes


def merged_values(outcomes: Sequence[ShardOutcome]) -> List[Any]:
    """The values of successful outcomes, in shard-index order.

    Failed shards (possible only in partial mode) are skipped; callers
    that need to know which cells are missing inspect the outcomes.
    """
    ordered = sorted(outcomes, key=lambda o: o.shard.index)
    return [o.value for o in ordered if o.ok]
