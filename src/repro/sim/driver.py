"""Experiment drivers: performance, monitored-footprint, and hardened runs.

``run_performance`` reproduces the section 5 methodology: build the
workload, run it to completion under a policy, report cycles/misses.

``run_monitored`` reproduces the section 3.3 methodology: "We have
measured the footprint sizes of the 'work' threads in each application
after the initialization stage completed.  The 'work' threads are blocked
during the computation stage and their state is flushed from the cache.
After threads resume, their footprints are monitored by our cache
simulator ...  we monitor the uninterrupted execution of a single 'work'
thread on an UltraSPARC-1 processor."

``run_hardened`` is the production-minded variant behind the fault
campaign (see :mod:`repro.faults`): the run executes under a
:class:`Watchdog` that enforces step budgets, checkpoints partial
results at every budget boundary, detects livelock and starvation, and
answers injected crashes with retry-with-reseed.  A hung or crashed run
therefore ends in a typed diagnostic
(:class:`~repro.threads.errors.WatchdogTimeout`) carrying the checkpoint
history instead of spinning forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import SharedStateModel
from repro.machine.configs import ULTRA1, MachineConfig
from repro.machine.smp import Machine
from repro.sched.base import Scheduler
from repro.sched.fcfs import FCFSScheduler
from repro.sim.metrics import MonitoredResult, PerfResult
from repro.sim.tracer import FootprintTracer
from repro.threads.errors import StepBudgetExceeded, WatchdogTimeout
from repro.threads.runtime import Observer, Runtime
from repro.workloads.base import MonitoredApp, Workload


def run_performance(
    workload: Workload,
    config: MachineConfig,
    scheduler: Scheduler,
    seed: int = 0,
    max_events: Optional[int] = None,
    engine: str = Runtime.DEFAULT_ENGINE,
) -> PerfResult:
    """Run a workload to completion; returns the aggregate counters.

    ``engine`` selects the scheduling loop (``"stepped"`` or ``"event"``;
    see docs/MODEL.md "The event engine") -- the counters are
    bit-identical either way, only wall-clock time differs.
    """
    machine = Machine(config, seed=seed)
    runtime = Runtime(machine, scheduler, engine=engine)
    workload.build(runtime)
    runtime.run(max_events=max_events)
    return _perf_result(workload, runtime)


def _perf_result(workload: Workload, runtime: Runtime) -> PerfResult:
    """The aggregate counters of a finished run of ``workload``."""
    machine = runtime.machine
    return PerfResult(
        workload=workload.name,
        scheduler=runtime.scheduler.name,
        num_cpus=machine.config.num_cpus,
        cycles=machine.time(),
        instructions=machine.total_instructions(),
        l2_misses=machine.total_l2_misses(),
        l2_refs=sum(cpu.l2.stats.refs for cpu in machine.cpus),
        context_switches=runtime.context_switches,
        steals=getattr(runtime.scheduler, "steals", 0),
        degraded=getattr(runtime.scheduler, "degraded", False),
    )


class _WorkThreadSampler(Observer):
    """Records (misses, observed footprint, instructions) after every
    touch of the watched thread."""

    def __init__(
        self, machine: Machine, tracer: FootprintTracer, cpu: int = 0
    ) -> None:
        self.machine = machine
        self.tracer = tracer
        self.cpu = cpu
        self.watch_tid: Optional[int] = None
        self.miss_base = 0
        self.instr_base = 0
        self.misses: List[int] = []
        self.observed: List[int] = []
        self.instructions: List[int] = []

    def arm(self, tid: int) -> None:
        """Start sampling for ``tid``, zeroing the counters at this point
        (the paper measures from the work thread's resume)."""
        self.watch_tid = tid
        self.miss_base = self.machine.cpus[self.cpu].l2.stats.misses
        self.instr_base = self.machine.cpus[self.cpu].instructions

    def on_touch(self, cpu: int, thread, touch) -> None:
        if thread.tid != self.watch_tid or cpu != self.cpu:
            return
        cpu_obj = self.machine.cpus[self.cpu]
        self.misses.append(cpu_obj.l2.stats.misses - self.miss_base)
        self.observed.append(self.tracer.observed(self.cpu, thread.tid))
        self.instructions.append(cpu_obj.instructions - self.instr_base)


def monitor_work_thread(
    app: MonitoredApp,
    config: MachineConfig,
    seed: int,
    observers: Sequence[Observer] = (),
) -> _WorkThreadSampler:
    """Section 3.3's steps, for :func:`run_monitored` and the off-line
    comparison: run the app's initialisation, flush every E-cache, then
    run one work thread with its state declared and its samples armed.

    ``observers`` are attached ahead of the footprint tracer and the
    sampler.  Returns the sampler; its ``watch_tid`` is the work thread.
    """
    machine = Machine(config, seed=seed)
    # The accuracy runs are about the model, not the policy: a bare FCFS
    # with no simulated scheduler memory keeps the cache unpolluted.
    runtime = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
    tracer = FootprintTracer(machine)
    sampler = _WorkThreadSampler(machine, tracer)
    for observer in (*observers, tracer, sampler):
        runtime.add_observer(observer)

    app.setup(runtime)
    init = app.init_body()
    if init is not None:
        runtime.at_create(init, name=f"{app.name}-init")
        runtime.run()

    # "their state is flushed from the cache" before monitoring resumes.
    machine.flush_all()

    work_tid = runtime.at_create(app.work_body(), name=f"{app.name}-work")
    runtime.declare_state(work_tid, app.state_regions())
    sampler.arm(work_tid)
    runtime.run()
    return sampler


def run_monitored(
    app: MonitoredApp,
    config: MachineConfig = ULTRA1,
    seed: int = 0,
) -> MonitoredResult:
    """Trace one work thread's footprint against the model's prediction."""
    sampler = monitor_work_thread(app, config, seed)
    misses = np.asarray(sampler.misses, dtype=np.int64)
    observed = np.asarray(sampler.observed, dtype=np.int64)
    instructions = np.asarray(sampler.instructions, dtype=np.int64)
    model = SharedStateModel(config.l2_lines)
    predicted = np.asarray(model.expected_running(0.0, misses), dtype=float)
    return MonitoredResult(
        app=app.name,
        language=app.language,
        cache_lines=config.l2_lines,
        misses=misses,
        observed=observed,
        predicted=predicted,
        instructions=instructions,
    )


# -- hardened runs: watchdog, checkpoints, retry-with-reseed ------------------


Signature = Tuple[Tuple[str, int, int, str], ...]


def workload_signature(runtime: Runtime) -> Signature:
    """The correctness signature of a run: per-thread ground truth.

    A sorted tuple of ``(name, refs, instructions, state)``.  References
    and instructions count what the thread's *program* did, independent
    of where or when it was scheduled, so two runs of the same workload
    must produce identical signatures no matter how the hints were
    corrupted.  Injected delays stall the cpu clock without charging the
    thread, and so also leave the signature untouched.

    Sorted by (schedule-invariant) thread name rather than keyed by tid:
    workloads that create threads dynamically (merge, tsp) assign tids
    in execution order, which a scheduling perturbation legitimately
    changes without changing any thread's results.
    """
    return tuple(
        sorted(
            (t.name, t.stats.refs, t.stats.instructions, t.state.value)
            for t in runtime.threads.values()
        )
    )


@dataclass(frozen=True)
class Checkpoint:
    """A progress snapshot taken at a step-budget boundary."""

    events: int
    cycles: int
    done: int  # threads finished
    live: int  # threads still alive
    thread_instructions: int  # ground-truth work completed so far
    thread_refs: int
    #: simulated time at the checkpoint (diagnostic: shows legitimate
    #: event-driven time jumps across otherwise-quiet chunks)
    sim_time: int = 0
    #: THREAD_WAKEUP timers that actually woke a thread so far
    wakeups: int = 0

    @property
    def progress(self) -> Tuple[int, int, int, int]:
        """The forward-progress tuple the stall detector compares.

        Events and cycles always grow (a livelocked thread still spins),
        so progress is measured by completed threads, by ground-truth
        program work, and by *event-time* progress -- delivered timer
        wakeups.  A phase of long sleeps legitimately executes whole
        chunks of Sleep/wake events without adding an instruction or a
        reference; its wakeups mark it as forward motion rather than a
        stall.  A Yield-spin livelock mints no wakeups and advances
        nothing else, so it still trips the detector.
        """
        return (
            self.done,
            self.thread_instructions,
            self.thread_refs,
            self.wakeups,
        )


class Watchdog:
    """Supervises a runtime with a step budget and a stall detector.

    ``supervise`` drives ``runtime.run`` in chunks of ``step_budget``
    events, checkpointing at every boundary.  If the progress tuple is
    unchanged for ``stall_chunks`` consecutive chunks, or the total
    ``max_chunks`` budget is exhausted, the run is declared hung and a
    :class:`WatchdogTimeout` carrying the checkpoint history and the
    partial result signature is raised -- an injected livelock becomes a
    diagnostic instead of an infinite loop.  Optionally, READY threads
    left undispatched for more than ``starvation_cycles`` also trip the
    watchdog (off by default: FCFS-bound workloads legitimately queue).
    """

    def __init__(
        self,
        step_budget: int = 200_000,
        max_chunks: int = 64,
        stall_chunks: int = 2,
        starvation_cycles: Optional[int] = None,
    ) -> None:
        self.step_budget = step_budget
        self.max_chunks = max_chunks
        self.stall_chunks = stall_chunks
        self.starvation_cycles = starvation_cycles
        self.checkpoints: List[Checkpoint] = []

    def _checkpoint(self, runtime: Runtime) -> Checkpoint:
        done = live = instructions = refs = 0
        for t in runtime.threads.values():
            if t.alive:
                live += 1
            else:
                done += 1
            instructions += t.stats.instructions
            refs += t.stats.refs
        cp = Checkpoint(
            events=runtime.events_executed,
            cycles=runtime.machine.time(),
            done=done,
            live=live,
            thread_instructions=instructions,
            thread_refs=refs,
            sim_time=runtime.machine.time(),
            wakeups=runtime.timer_wakeups,
        )
        self.checkpoints.append(cp)
        return cp

    def _stalled_threads(self, runtime: Runtime) -> List:
        """Live threads that contributed nothing across the stall window
        (best-effort naming for the diagnostic; livelocked threads are
        flagged directly)."""
        return [
            t
            for t in runtime.threads.values()
            if t.alive and (t.fault_livelocked or t.state.value == "blocked")
        ]

    def _starved_threads(self, runtime: Runtime) -> List:
        if self.starvation_cycles is None:
            return []
        now = runtime.machine.time()
        return [
            t
            for t in runtime.threads.values()
            if t.ready_at is not None
            and now - t.ready_at > self.starvation_cycles
        ]

    def _timeout(self, runtime: Runtime, reason: str) -> WatchdogTimeout:
        stalled = self._stalled_threads(runtime)
        detail = ""
        if stalled:
            detail = "; stalled: " + ", ".join(t.name for t in stalled)
        return WatchdogTimeout(
            f"watchdog: {reason} after {runtime.events_executed} events"
            f"{detail}",
            checkpoints=[vars(cp) for cp in self.checkpoints],
            partial=workload_signature(runtime),
            stalled=stalled,
        )

    def supervise(self, runtime: Runtime) -> None:
        """Run ``runtime`` to completion or raise :class:`WatchdogTimeout`.

        May also propagate whatever the workload itself raises (including
        an :class:`~repro.faults.injector.InjectedCrash` from the fault
        injector, handled one level up by :func:`run_hardened`).
        """
        stalled_for = 0
        last_progress: Optional[Tuple[int, int, int, int]] = None
        for chunk in range(1, self.max_chunks + 1):
            try:
                runtime.run(max_events=chunk * self.step_budget)
            except StepBudgetExceeded:
                cp = self._checkpoint(runtime)
                if cp.progress == last_progress:
                    stalled_for += 1
                    if stalled_for >= self.stall_chunks:
                        raise self._timeout(
                            runtime,
                            f"no forward progress across "
                            f"{stalled_for * self.step_budget} events",
                        ) from None
                else:
                    stalled_for = 0
                    last_progress = cp.progress
                starved = self._starved_threads(runtime)
                if starved:
                    names = ", ".join(t.name for t in starved)
                    raise self._timeout(
                        runtime, f"starvation: {names} ready too long"
                    ) from None
            else:
                self._checkpoint(runtime)
                return
        raise self._timeout(
            runtime,
            f"step budget exhausted ({self.max_chunks * self.step_budget} "
            f"events)",
        )


@dataclass
class HardenedResult:
    """Outcome of :func:`run_hardened`."""

    perf: PerfResult
    #: per-thread correctness signature (see :func:`workload_signature`)
    signature: Signature
    #: 1 on a clean first run; >1 means retries-with-reseed happened
    attempts: int
    #: watchdog checkpoints of the successful attempt
    checkpoints: List[Checkpoint] = field(default_factory=list)
    #: injection tallies from the injector (empty dict when no plan)
    injections: Dict = field(default_factory=dict)
    #: light/deep invariant check counts (empty when checking disabled)
    invariant_checks: Dict = field(default_factory=dict)
    #: True if the final attempt ran with thread faults stripped
    safe_mode: bool = False


def run_hardened(
    workload_factory: Callable[[], Workload],
    config: MachineConfig,
    scheduler_factory: Callable[[], Scheduler],
    plan=None,
    seed: int = 0,
    watchdog: Optional[Watchdog] = None,
    max_attempts: int = 3,
    invariants: bool = True,
    engine: str = Runtime.DEFAULT_ENGINE,
) -> HardenedResult:
    """Run a workload under fault injection with full hardening.

    Builds a fresh machine/scheduler/runtime/workload per attempt (the
    factories make each retry hermetic), injects faults per ``plan`` (a
    :class:`~repro.faults.plan.FaultPlan`, or ``None`` for a fault-free
    reference run), supervises with a :class:`Watchdog`, and validates
    invariants every step.  An :class:`InjectedCrash` triggers
    retry-with-reseed; if crashes persist, the final attempt strips
    thread faults from the plan (``safe_mode``) so hint faults are still
    exercised while the run is guaranteed crash-free.  A hung run raises
    :class:`WatchdogTimeout`; everything else returns a
    :class:`HardenedResult`.
    """
    # Imported lazily: repro.faults depends on this module for the
    # campaign, so a module-level import here would be circular.
    from repro.faults.injector import FaultInjector, InjectedCrash
    from repro.faults.invariants import InvariantChecker

    last_crash: Optional[Exception] = None
    for attempt in range(1, max_attempts + 1):
        attempt_plan = plan
        safe_mode = False
        if plan is not None and attempt > 1:
            if attempt == max_attempts and plan.thread is not None:
                attempt_plan = plan.without_thread_faults().reseed(attempt)
                safe_mode = True
            else:
                attempt_plan = plan.reseed(attempt)
        injector = (
            FaultInjector(attempt_plan) if attempt_plan is not None else None
        )
        machine = Machine(config, seed=seed)
        scheduler = scheduler_factory()
        runtime = Runtime(machine, scheduler, injector=injector, engine=engine)
        checker: Optional[InvariantChecker] = None
        if invariants:
            checker = InvariantChecker(runtime)
            runtime.add_observer(checker)
        workload = workload_factory()
        workload.build(runtime)
        dog = watchdog if watchdog is not None else Watchdog()
        dog.checkpoints = []
        try:
            dog.supervise(runtime)
        except InjectedCrash as crash:
            last_crash = crash
            continue
        if checker is not None:
            checker.deep_check()  # final sweep at quiescence
        return HardenedResult(
            perf=_perf_result(workload, runtime),
            signature=workload_signature(runtime),
            attempts=attempt,
            checkpoints=list(dog.checkpoints),
            injections=injector.summary() if injector is not None else {},
            invariant_checks=(
                {"light": checker.checks, "deep": checker.deep_checks}
                if checker is not None
                else {}
            ),
            safe_mode=safe_mode,
        )
    raise WatchdogTimeout(
        f"crashed on all {max_attempts} attempts: {last_crash}",
    )
