"""Tests for the experiment drivers."""

import numpy as np
import pytest

from repro.machine.configs import SMALL, ULTRA1
from repro.sched.fcfs import FCFSScheduler
from repro.sched.locality import make_lff
from repro.sim.driver import run_monitored, run_performance
from repro.workloads import MergeMonitored, TasksParams, TasksWorkload


class TestRunPerformance:
    def test_returns_complete_result(self):
        result = run_performance(
            TasksWorkload(TasksParams(num_tasks=8, periods=3)),
            SMALL,
            FCFSScheduler(model_scheduler_memory=False),
        )
        assert result.workload == "tasks"
        assert result.scheduler == "fcfs"
        assert result.l2_misses > 0
        assert result.cycles > 0
        assert result.context_switches > 0

    def test_steals_captured_for_locality(self):
        result = run_performance(
            TasksWorkload(TasksParams(num_tasks=8, periods=3)),
            SMALL,
            make_lff(model_scheduler_memory=False),
        )
        assert result.steals >= 0

    def test_same_seed_is_deterministic(self):
        results = [
            run_performance(
                TasksWorkload(TasksParams(num_tasks=8, periods=3)),
                SMALL,
                FCFSScheduler(model_scheduler_memory=False),
                seed=3,
            ).l2_misses
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_degraded_run_says_so(self):
        """A locality scheduler that fell back to FCFS ordering reports it,
        under its own name."""
        workload = TasksParams(num_tasks=8, periods=3)
        degraded = make_lff(model_scheduler_memory=False)
        degraded.degraded = True
        result = run_performance(TasksWorkload(workload), SMALL, degraded)
        assert result.degraded is True
        assert result.scheduler == "lff"
        healthy = run_performance(
            TasksWorkload(workload), SMALL, make_lff(model_scheduler_memory=False)
        )
        assert healthy.degraded is False


class TestRunMonitored:
    def test_trace_structure(self):
        result = run_monitored(MergeMonitored(num_elements=4000), config=ULTRA1)
        assert result.misses.size == result.observed.size
        assert result.misses.size == result.predicted.size
        assert result.misses.size == result.instructions.size

    def test_prediction_is_case1_from_zero(self):
        """The work thread's state is flushed, so the prediction starts at
        S0 = 0: E = N (1 - k^n)."""
        result = run_monitored(MergeMonitored(num_elements=4000), config=ULTRA1)
        n_cache = result.cache_lines
        k = (n_cache - 1) / n_cache
        expected = n_cache * (1 - k ** result.misses[-1].astype(float))
        assert result.predicted[-1] == pytest.approx(expected, rel=1e-9)

    def test_misses_counted_from_work_phase_start(self):
        result = run_monitored(MergeMonitored(num_elements=4000), config=ULTRA1)
        # first sample reflects only the first touch batch, not the init
        assert result.misses[0] < result.misses[-1]
        assert result.misses[0] >= 0
