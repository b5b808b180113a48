"""Property-based fuzzing of the full runtime + scheduler stack.

Random fork/join/sleep/touch workloads are generated by hypothesis and
run to completion under all three policies.  The invariants:

- every run completes (no deadlock, no lost threads);
- scheduling never changes *what* the program does: each thread issues
  the same references under every policy;
- the same seed is bit-reproducible;
- fault injection into the hint paths (annotations, counters) and
  absorbed thread delays leave per-thread results identical to a
  fault-free run, with every runtime/scheduler invariant intact;
- the stepped and event engines are bit-identical on every generated
  workload, under every policy and cpu count of the engine-parity
  matrix (``tests/sim/test_engine_parity.py``).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    AnnotationFaults,
    CounterFaults,
    FaultInjector,
    FaultPlan,
    InvariantChecker,
    ThreadFaults,
)
from repro.machine.configs import SMALL
from repro.machine.smp import Machine
from repro.sched import SCHEDULERS
from repro.sched.fcfs import FCFSScheduler
from repro.sched.locality import make_crt, make_lff
from repro.sim.driver import workload_signature
from repro.threads.events import Compute, Join, Sleep, Touch, Yield
from repro.threads.runtime import Runtime
from repro.threads.thread import ThreadState
from tests.sim.test_engine_parity import (
    CPU_COUNTS,
    POLICIES,
    _assert_parity,
    _full_state,
)

#: a generated thread spec: list of (op, arg) tuples
_OP = st.sampled_from(["touch", "compute", "sleep", "yield"])
_SPEC = st.lists(
    st.tuples(_OP, st.integers(1, 60)), min_size=1, max_size=6
)


def _body(runtime, region, spec, children_specs, name="t"):
    """A thread body from a spec, spawning annotated children first.

    Children get names derived from the parent's (``name.0``, ``name.1``,
    ...), which are invariant across schedules -- unlike tids, which are
    assigned in execution order for dynamically created threads.
    """

    def gen():
        kids = []
        for j, child_spec in enumerate(children_specs):
            kid = runtime.at_create(
                _body(runtime, region, child_spec, [], name=f"{name}.{j}"),
                name=f"{name}.{j}",
            )
            runtime.at_share(kid, runtime.at_self(), 0.5)
            kids.append(kid)
        for op, arg in spec:
            if op == "touch":
                start = arg % max(1, region.num_lines - 10)
                yield Touch(region.lines()[start : start + 10])
            elif op == "compute":
                yield Compute(arg * 10)
            elif op == "sleep":
                yield Sleep(arg * 50)
            else:
                yield Yield()
        for kid in kids:
            yield Join(kid)

    return gen


@st.composite
def workloads(draw):
    roots = draw(st.integers(1, 4))
    out = []
    for _ in range(roots):
        spec = draw(_SPEC)
        children = draw(st.lists(_SPEC, max_size=3))
        out.append((spec, children))
    return out


def _new_runtime(cpus, scheduler, **kwargs):
    machine = Machine(replace(SMALL, name="fuzz", num_cpus=cpus), seed=3)
    return Runtime(machine, scheduler, **kwargs)


def _create_roots(runtime, workload):
    region = runtime.machine.address_space.allocate_lines("shared", 128)
    for i, (spec, children) in enumerate(workload):
        runtime.at_create(
            _body(runtime, region, spec, children, name=f"r{i}"),
            name=f"r{i}",
        )


def _run(workload, scheduler, injector=None, check_invariants=False):
    runtime = _new_runtime(2, scheduler, injector=injector)
    machine = runtime.machine
    checker = None
    if check_invariants:
        checker = InvariantChecker(runtime, deep_every=16)
        runtime.add_observer(checker)
    _create_roots(runtime, workload)
    runtime.run(max_events=200_000)
    if checker is not None:
        checker.deep_check()
        for heap in getattr(runtime.scheduler, "heaps", []):
            heap.validate()
    refs = {t.tid: t.stats.refs for t in runtime.threads.values()}
    states = {t.tid: t.state for t in runtime.threads.values()}
    return refs, states, machine.total_l2_misses(), workload_signature(runtime)


@given(workload=workloads())
@settings(max_examples=25, deadline=None)
def test_all_policies_complete_identical_programs(workload):
    reference_refs = None
    for factory in (
        lambda: FCFSScheduler(model_scheduler_memory=False),
        lambda: make_lff(model_scheduler_memory=False),
        lambda: make_crt(model_scheduler_memory=False),
    ):
        refs, states, _misses, _sig = _run(workload, factory())
        assert all(s is ThreadState.DONE for s in states.values())
        if reference_refs is None:
            reference_refs = refs
        else:
            # the program's own memory behaviour is schedule-independent
            assert refs == reference_refs


@given(workload=workloads())
@settings(max_examples=10, deadline=None)
def test_lff_is_deterministic(workload):
    first = _run(workload, make_lff(model_scheduler_memory=False))
    second = _run(workload, make_lff(model_scheduler_memory=False))
    assert first == second


#: hint faults plus absorbed delays -- everything the robustness contract
#: says may cost performance but never correctness
_HINT_CHAOS = FaultPlan(
    seed=11,
    annotation=AnnotationFaults(drop_prob=0.3, corrupt_prob=0.3,
                                bogus_prob=0.3),
    counter=CounterFaults(mode="noise", prob=0.5, magnitude=200),
    thread=ThreadFaults(mode="delay", prob=0.02, delay_instructions=5_000),
)


@given(workload=workloads())
@settings(max_examples=10, deadline=None)
def test_fault_injection_never_changes_results(workload):
    _refs, states, _misses, baseline = _run(
        workload, FCFSScheduler(model_scheduler_memory=False)
    )
    assert all(s is ThreadState.DONE for s in states.values())
    for factory in (
        lambda: FCFSScheduler(model_scheduler_memory=False),
        lambda: make_lff(model_scheduler_memory=False),
        lambda: make_crt(model_scheduler_memory=False),
    ):
        _refs, states, _misses, signature = _run(
            workload,
            factory(),
            injector=FaultInjector(_HINT_CHAOS),
            check_invariants=True,
        )
        assert all(s is ThreadState.DONE for s in states.values())
        # corrupted hints cost performance at most, never correctness
        assert signature == baseline


@given(workload=workloads())
@settings(max_examples=5, deadline=None)
def test_faulty_runs_replay_bit_identically(workload):
    first = _run(
        workload,
        make_lff(model_scheduler_memory=False),
        injector=FaultInjector(_HINT_CHAOS),
    )
    second = _run(
        workload,
        make_lff(model_scheduler_memory=False),
        injector=FaultInjector(_HINT_CHAOS),
    )
    assert first == second


@given(workload=workloads())
@settings(max_examples=50, deadline=None)
def test_engines_bit_identical_on_generated_workloads(workload):
    """Engine parity beyond the fixed matrix: every counter the parity
    matrix compares, on workloads that mix sleeps (the queued event)
    with yields, annotated forks and joins."""
    for policy in POLICIES:
        for cpus in CPU_COUNTS:
            states = {}
            for engine in Runtime.ENGINES:
                # SCHEDULERS' defaults model scheduler memory
                scheduler = SCHEDULERS[policy]()
                runtime = _new_runtime(cpus, scheduler, engine=engine)
                _create_roots(runtime, workload)
                runtime.run(max_events=200_000)
                states[engine] = _full_state(
                    runtime, runtime.machine, scheduler
                )
            _assert_parity(
                f"{policy}/generated/cpus={cpus}",
                states["stepped"], states["event"],
            )
