"""The fault campaign: chaos-test the paper's robustness contract.

Section 2.3 of the paper argues that sharing annotations and performance
counter readings are *hints*: "incorrect information may affect
performance, but it does not affect the correctness of the program."
``run_campaign`` turns that sentence into an executable assertion: for
each (workload, policy) pair it runs a fault-free baseline, then replays
the run under every fault class in :data:`~repro.faults.plan.
FAULT_CLASSES`, and compares per-thread result signatures
(:func:`~repro.sim.driver.workload_signature`).

Expected outcomes, per fault class:

- hint faults (``annotation_*``, ``counter_*``) and absorbed thread
  delays: the run completes with a **bit-identical** signature, within a
  bounded slowdown;
- ``thread_crash``: the watchdog retries with a reseeded plan and the
  surviving attempt's signature is bit-identical;
- ``thread_livelock``: the run does *not* complete -- the watchdog must
  convert the hang into a :class:`~repro.threads.errors.WatchdogTimeout`
  diagnostic, which the campaign records as the expected outcome.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.faults.plan import EXPECTS_TIMEOUT, FAULT_CLASSES, FaultPlan
from repro.machine.configs import SMALL, MachineConfig
from repro.parallel import ProgressFn, ResultCache, Shard, run_shards
from repro.sched import SCHEDULERS
from repro.sim.driver import (
    HardenedResult,
    Watchdog,
    run_hardened,
    workload_signature,
)
from repro.sim.report import format_table
from repro.threads.errors import WatchdogTimeout
from repro.threads.runtime import Runtime
from repro.workloads.mergesort import MergeWorkload
from repro.workloads.params import MergeParams, PhotoParams, TasksParams, TspParams
from repro.workloads.photo import PhotoWorkload
from repro.workloads.randomwalk import RandomWalkWorkload
from repro.workloads.tasks import TasksWorkload
from repro.workloads.tsp import TspWorkload


def campaign_workloads(scale: str = "smoke") -> Dict[str, Callable]:
    """Workload factories for the campaign.

    ``smoke`` shrinks every application so a full fault sweep stays in
    seconds; ``default`` uses the experiments' default parameters.
    """
    if scale == "smoke":
        return {
            "randomwalk": lambda: RandomWalkWorkload(
                total_touches=4096, periods=3
            ),
            "tasks": lambda: TasksWorkload(
                TasksParams(num_tasks=24, periods=4)
            ),
            "merge": lambda: MergeWorkload(
                MergeParams(num_elements=4000, leaf_cutoff=250)
            ),
            "photo": lambda: PhotoWorkload(
                PhotoParams(width=128, height=32)
            ),
            "tsp": lambda: TspWorkload(
                TspParams(num_cities=12, branch_levels=4)
            ),
        }
    if scale == "default":
        return {
            "randomwalk": lambda: RandomWalkWorkload(),
            "tasks": lambda: TasksWorkload(),
            "merge": lambda: MergeWorkload(),
            "photo": lambda: PhotoWorkload(),
            "tsp": lambda: TspWorkload(),
        }
    raise ValueError(f"unknown campaign scale {scale!r}")


@dataclass
class CampaignRow:
    """Outcome of one (workload, policy, fault class) cell."""

    workload: str
    policy: str
    fault_class: str
    outcome: str  # "identical" | "watchdog-timeout" | "DIVERGED" | "ERROR"
    ok: bool  # outcome matches the fault class's contract
    slowdown: Optional[float] = None  # cycles vs fault-free baseline
    attempts: int = 1
    detail: str = ""
    result: Optional[HardenedResult] = field(default=None, repr=False)


def _diff_signatures(base, faulty) -> str:
    """First few per-thread differences, for the diagnostic column."""
    base_only = Counter(base) - Counter(faulty)
    faulty_only = Counter(faulty) - Counter(base)
    diffs = [f"baseline-only {e}" for e in sorted(base_only)[:3]]
    diffs += [f"faulty-only {e}" for e in sorted(faulty_only)[:3]]
    return "; ".join(diffs)


#: watchdog defaults for campaign cells (the per-shard timeout: step
#: budgets are simulated-event counts, so they fire identically no
#: matter which worker runs the shard)
DEFAULT_STEP_BUDGET = 50_000
DEFAULT_MAX_CHUNKS = 40


def _run_pair(
    wname: str,
    factory: Callable,
    policy: str,
    fault_classes: Iterable[str],
    config: MachineConfig,
    seed: int,
    watchdog_factory: Callable[[], Watchdog],
    engine: str = Runtime.DEFAULT_ENGINE,
) -> List[CampaignRow]:
    """One (workload, policy) block: fault-free baseline, then every
    requested fault class against it.  This is the shard body -- the
    serial loop and the worker processes both call it, so the two paths
    cannot diverge."""
    scheduler_factory = SCHEDULERS[policy]
    baseline = run_hardened(
        factory,
        config,
        scheduler_factory,
        plan=None,
        seed=seed,
        watchdog=watchdog_factory(),
        engine=engine,
    )
    return [
        _run_cell(
            wname,
            policy,
            cname,
            FAULT_CLASSES[cname](seed),
            factory,
            scheduler_factory,
            config,
            seed,
            baseline,
            watchdog_factory(),
            engine,
        )
        for cname in fault_classes
    ]


def _campaign_shard(
    workload: str,
    policy: str,
    scale: str,
    fault_classes: List[str],
    config: MachineConfig,
    seed: int,
    step_budget: int,
    max_chunks: int,
    engine: str = Runtime.DEFAULT_ENGINE,
) -> List[CampaignRow]:
    """Worker entry point: everything arrives by name or plain value."""
    factory = campaign_workloads(scale)[workload]
    return _run_pair(
        workload,
        factory,
        policy,
        fault_classes,
        config,
        seed,
        lambda: Watchdog(step_budget=step_budget, max_chunks=max_chunks),
        engine=engine,
    )


def campaign_shards(
    scale: str = "smoke",
    workload_names: Optional[Sequence[str]] = None,
    policies: Iterable[str] = ("fcfs", "lff"),
    fault_classes: Optional[Iterable[str]] = None,
    config: MachineConfig = SMALL,
    seed: int = 0,
    step_budget: int = DEFAULT_STEP_BUDGET,
    max_chunks: int = DEFAULT_MAX_CHUNKS,
    engine: str = Runtime.DEFAULT_ENGINE,
) -> List[Shard]:
    """Deterministic work partitioning of the campaign matrix.

    One shard per (workload, policy) pair, in the serial iteration
    order, so the merged rows are bit-identical to the serial loop.
    Sharding at the pair keeps the fault-free baseline computed once
    per pair (as the serial loop does) instead of once per cell.
    """
    names = (
        list(workload_names)
        if workload_names is not None
        else list(campaign_workloads(scale))
    )
    classes = (
        list(fault_classes) if fault_classes is not None
        else list(FAULT_CLASSES)
    )
    shards = []
    for wname in names:
        for policy in policies:
            shards.append(
                Shard(
                    index=len(shards),
                    key=f"faults/{wname}/{policy}",
                    fn="repro.faults.campaign:_campaign_shard",
                    params={
                        "workload": wname,
                        "policy": policy,
                        "scale": scale,
                        "fault_classes": classes,
                        "config": config,
                        "seed": seed,
                        "step_budget": step_budget,
                        "max_chunks": max_chunks,
                        "engine": engine,
                    },
                )
            )
    return shards


def run_campaign(
    workloads: Optional[Dict[str, Callable]] = None,
    policies: Iterable[str] = ("fcfs", "lff"),
    fault_classes: Optional[Iterable[str]] = None,
    config: MachineConfig = SMALL,
    seed: int = 0,
    watchdog_factory: Optional[Callable[[], Watchdog]] = None,
    *,
    scale: str = "smoke",
    workload_names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    partial: bool = False,
    progress: Optional[ProgressFn] = None,
    cache: Optional[ResultCache] = None,
    engine: str = Runtime.DEFAULT_ENGINE,
) -> List[CampaignRow]:
    """Run the full fault matrix; returns one row per cell.

    Every row's ``ok`` means "the contract held": hint faults left
    results bit-identical, crashes were survived by retry, livelocks
    became watchdog diagnostics.  A ``DIVERGED`` or ``ERROR`` row is a
    genuine robustness bug.

    With ``jobs > 1`` the (workload, policy) pairs run on a process
    pool via :mod:`repro.parallel`; the merged rows are bit-identical
    to ``jobs=1`` (asserted by ``tests/parallel``).  The parallel path
    requires the work to be specified *by name* (``scale`` plus
    ``workload_names``) so shards stay pure and picklable -- passing
    live ``workloads`` factories or a ``watchdog_factory`` closure
    forces the serial path.  With ``partial=True`` a shard that failed
    (after its retry) is reported as one synthetic ``SHARD-FAILED`` row
    instead of aborting the whole campaign.

    ``cache`` makes the campaign resumable (docs/PARALLEL.md): pairs
    whose fingerprint already has a stored result are not re-executed.
    """
    if fault_classes is None:
        fault_classes = list(FAULT_CLASSES)
    fault_classes = list(fault_classes)

    if workloads is not None or watchdog_factory is not None:
        if jobs > 1 or cache is not None:
            raise ValueError(
                "parallel/cached campaigns shard by name: pass "
                "scale/workload_names instead of live workloads/watchdog "
                "factories"
            )
        if workloads is None:
            workloads = campaign_workloads(scale)
        if watchdog_factory is None:
            watchdog_factory = lambda: Watchdog(
                step_budget=DEFAULT_STEP_BUDGET, max_chunks=DEFAULT_MAX_CHUNKS
            )
        rows: List[CampaignRow] = []
        for wname, factory in workloads.items():
            for policy in policies:
                rows.extend(
                    _run_pair(
                        wname,
                        factory,
                        policy,
                        fault_classes,
                        config,
                        seed,
                        watchdog_factory,
                        engine=engine,
                    )
                )
        return rows

    shards = campaign_shards(
        scale=scale,
        workload_names=workload_names,
        policies=policies,
        fault_classes=fault_classes,
        config=config,
        seed=seed,
        engine=engine,
    )
    outcomes = run_shards(
        shards, jobs=jobs, partial=partial, progress=progress, cache=cache,
    )
    rows = []
    for outcome in outcomes:
        if outcome.ok:
            rows.extend(outcome.value)
        else:
            # partial mode: one synthetic row stands in for the lost pair
            _prefix, wname, policy = outcome.shard.key.split("/")
            rows.append(
                CampaignRow(
                    workload=wname,
                    policy=policy,
                    fault_class="*",
                    outcome="SHARD-FAILED",
                    ok=False,
                    attempts=outcome.attempts,
                    detail=outcome.error,
                )
            )
    return rows


def _run_cell(
    wname: str,
    policy: str,
    cname: str,
    plan: FaultPlan,
    factory: Callable,
    scheduler_factory: Callable,
    config: MachineConfig,
    seed: int,
    baseline: HardenedResult,
    watchdog: Watchdog,
    engine: str = Runtime.DEFAULT_ENGINE,
) -> CampaignRow:
    expects_timeout = cname in EXPECTS_TIMEOUT
    try:
        result = run_hardened(
            factory,
            config,
            scheduler_factory,
            plan=plan,
            seed=seed,
            watchdog=watchdog,
            engine=engine,
        )
    except WatchdogTimeout as timeout:
        done = sum(1 for s in timeout.partial if s[3] == "done")
        detail = f"{done}/{len(timeout.partial)} threads finished; {timeout}"
        return CampaignRow(
            workload=wname,
            policy=policy,
            fault_class=cname,
            outcome="watchdog-timeout",
            ok=expects_timeout,
            detail=detail if not expects_timeout else f"{done}/"
            f"{len(timeout.partial)} threads finished before diagnosis",
        )
    except Exception as exc:  # an unhardened escape is a campaign failure
        return CampaignRow(
            workload=wname,
            policy=policy,
            fault_class=cname,
            outcome="ERROR",
            ok=False,
            detail=f"{type(exc).__name__}: {exc}",
        )
    if expects_timeout:
        return CampaignRow(
            workload=wname,
            policy=policy,
            fault_class=cname,
            outcome="completed",
            ok=False,
            detail="expected a WatchdogTimeout diagnostic, run completed",
            result=result,
        )
    identical = result.signature == baseline.signature
    slowdown = (
        result.perf.cycles / baseline.perf.cycles
        if baseline.perf.cycles
        else None
    )
    return CampaignRow(
        workload=wname,
        policy=policy,
        fault_class=cname,
        outcome="identical" if identical else "DIVERGED",
        ok=identical,
        slowdown=slowdown,
        attempts=result.attempts,
        detail=(
            ""
            if identical
            else _diff_signatures(baseline.signature, result.signature)
        ),
        result=result,
    )


def format_campaign(rows: List[CampaignRow]) -> str:
    """Render campaign rows as the bench/CLI table."""
    table = format_table(
        ["workload", "policy", "fault class", "outcome", "slowdown",
         "tries", "ok"],
        [
            (
                r.workload,
                r.policy,
                r.fault_class,
                r.outcome,
                "-" if r.slowdown is None else f"{r.slowdown:.2f}x",
                r.attempts,
                "ok" if r.ok else "FAIL",
            )
            for r in rows
        ],
        title="fault campaign (hints must never affect correctness)",
    )
    failures = [r for r in rows if not r.ok]
    lines = [table]
    for r in failures:
        lines.append(
            f"FAIL {r.workload}/{r.policy}/{r.fault_class}: {r.detail}"
        )
    lines.append(
        f"{len(rows) - len(failures)}/{len(rows)} cells honoured the "
        f"hint contract"
    )
    return "\n".join(lines)
