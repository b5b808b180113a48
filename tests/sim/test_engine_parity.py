"""Golden-parity matrix: ``--engine event`` is bit-identical to stepped.

Every cell of the (policy x workload x cpus) matrix runs the same
workload under both engines and compares the *full* observable state --
global time, per-cpu cycle and instruction counters, PIC registers,
miss totals, context switches, executed events, timer wakeups, the
per-thread result signatures, and the scheduler's own pick/steal/heap
statistics.  The event log's fired/emitted timeline must match too.
Any drift anywhere fails the cell; the CI ``engine-parity`` job runs this
file (plus the generated-workload property in
``tests/test_fuzz_schedulers.py``) and uploads the diff artifact written
to ``$ENGINE_PARITY_DIFF`` when a cell fails.
"""

import os

import pytest

from repro.faults.campaign import campaign_workloads
from repro.machine.configs import SMALL
from repro.machine.smp import Machine
from repro.sched import SCHEDULERS
from repro.sim.trace import record_workload_trace
from repro.sim.tracer import event_timeline
from repro.threads.runtime import Runtime
from repro.workloads.server import ServerParams, ServerWorkload

POLICIES = ("fcfs", "lff", "crt")
CPU_COUNTS = (1, 2, 4)
WORKLOADS = campaign_workloads("smoke")


def _full_state(runtime, machine, scheduler):
    """Everything the parity guarantee covers, as a comparable dict."""
    state = {
        "time": machine.time(),
        "clocks": tuple(p.cycles for p in machine.cpus),
        "instructions": tuple(p.instructions for p in machine.cpus),
        "pics": tuple(
            tuple(pic.value for pic in cpu.counters._pics)
            for cpu in machine.cpus
        ),
        "misses": machine.total_l2_misses(),
        "context_switches": runtime.context_switches,
        "events": runtime.events_executed,
        "timer_wakeups": runtime.timer_wakeups,
        "threads": tuple(
            sorted(
                (
                    t.name,
                    t.stats.refs,
                    t.stats.instructions,
                    t.stats.misses,
                    t.stats.wait_cycles,
                    t.stats.migrations,
                    t.state.value,
                )
                for t in runtime.threads.values()
            )
        ),
    }
    for attr in ("_picks", "steals", "demotions", "compactions"):
        if hasattr(scheduler, attr):
            state[attr] = getattr(scheduler, attr)
    if hasattr(scheduler, "heaps"):
        state["heap_ops"] = tuple(
            (h.pushes, h.pops) for h in scheduler.heaps
        )
    return state


def _run_cell(policy, build, cpus, engine):
    machine = Machine(SMALL.with_cpus(cpus), seed=0)
    scheduler = SCHEDULERS[policy]()
    runtime = Runtime(machine, scheduler, engine=engine)
    build(runtime)
    runtime.run()
    return _full_state(runtime, machine, scheduler)


def _assert_parity(cell, stepped, event):
    if stepped == event:
        return
    drifted = sorted(k for k in stepped if stepped[k] != event[k])
    path = os.environ.get("ENGINE_PARITY_DIFF")
    if path:
        with open(path, "a") as fh:
            fh.write(f"MISMATCH {cell}\n")
            for key in drifted:
                fh.write(
                    f"  {key}:\n"
                    f"    stepped = {stepped[key]!r}\n"
                    f"    event   = {event[key]!r}\n"
                )
    pytest.fail(
        f"{cell}: engines drifted in {', '.join(drifted)}; "
        f"stepped={[stepped[k] for k in drifted]!r} "
        f"event={[event[k] for k in drifted]!r}"
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("policy", POLICIES)
def test_engine_parity(policy, workload):
    factory = WORKLOADS[workload]
    for cpus in CPU_COUNTS:
        cell = f"{policy}/{workload}/cpus={cpus}"
        stepped = _run_cell(
            policy, lambda rt: factory().build(rt), cpus, "stepped"
        )
        event = _run_cell(
            policy, lambda rt: factory().build(rt), cpus, "event"
        )
        _assert_parity(cell, stepped, event)


@pytest.mark.parametrize("policy", POLICIES)
def test_engine_parity_sparse_server(policy):
    """The engine's home turf: deep parking and long virtual spans."""
    params = ServerParams(
        num_requests=24, sleep_cycles=250_000, stagger_cycles=4_000
    )

    def build(runtime):
        ServerWorkload(params).build(runtime)

    for cpus in (2, 8):
        cell = f"{policy}/server/cpus={cpus}"
        stepped = _run_cell(policy, build, cpus, "stepped")
        event = _run_cell(policy, build, cpus, "event")
        _assert_parity(cell, stepped, event)


@pytest.mark.parametrize("workload, kind, rows", [
    ("merge", "THREAD_BLOCK", 28),
    ("tasks", "THREAD_WAKEUP", 96),
])
def test_event_timeline_parity(workload, kind, rows):
    """``event_timeline`` reads the same rows under both engines: merge
    logs only blocks, tasks only sleep-timer wakeups."""
    timelines = {}
    for engine in Runtime.ENGINES:
        _recorder, runtime = record_workload_trace(
            WORKLOADS[workload](), SMALL.with_cpus(4), SCHEDULERS["lff"](),
            engine=engine, log_events=4096,
        )
        timelines[engine] = event_timeline(runtime)
    stepped = timelines["stepped"]
    assert stepped == timelines["event"]
    assert len(stepped) == rows
    assert {row[3] for row in stepped} == {kind}


def test_diff_artifact_written_on_mismatch(tmp_path, monkeypatch):
    """The CI artifact plumbing itself: a drifted cell writes the diff."""
    diff = tmp_path / "parity-diff.txt"
    monkeypatch.setenv("ENGINE_PARITY_DIFF", str(diff))
    stepped = {"time": 100, "misses": 5}
    event = {"time": 100, "misses": 6}
    with pytest.raises(pytest.fail.Exception):
        _assert_parity("fcfs/example/cpus=2", stepped, event)
    text = diff.read_text()
    assert "MISMATCH fcfs/example/cpus=2" in text
    assert "misses" in text and "time" not in text.split("MISMATCH")[1]
