"""The priority schemes as footprint bookkeepers (section 4).

LFF and CRT keep every thread's expected footprint per cpu with lazy
decay: only the blocker (case 1) and its dependents (case 3) are
rewritten at a switch, and everyone else decays on demand (case 2).
``current_footprint`` materialises the value the scheduler's threshold,
demotion and steal checks read.  Each check runs on both schemes.
"""

import pytest

from repro.core.priorities import CRTScheme, LFFScheme

SCHEMES = (LFFScheme, CRTScheme)


def _schemes(model, graph, num_cpus=2):
    return [cls(model, graph, num_cpus) for cls in SCHEMES]


@pytest.fixture
def schemes(model, graph):
    return _schemes(model, graph)


class TestBlockerUpdates:
    def test_matches_case1(self, schemes, model):
        for est in schemes:
            est.on_dispatch(0, 1)
            est.on_block(0, 1, 40)
            assert est.current_footprint(0, 1) == pytest.approx(
                model.expected_running(0, 40)
            )

    def test_successive_intervals_compose(self, schemes, model):
        for est in schemes:
            est.on_dispatch(0, 1)
            est.on_block(0, 1, 40)
            first = est.current_footprint(0, 1)
            est.on_dispatch(0, 1)
            est.on_block(0, 1, 10)
            assert est.current_footprint(0, 1) == pytest.approx(
                model.expected_running(first, 10)
            )

    def test_block_wrong_thread_rejected(self, schemes):
        for est in schemes:
            est.on_dispatch(0, 1)
            with pytest.raises(RuntimeError):
                est.on_block(0, 2, 5)

    def test_negative_misses_rejected(self, schemes):
        for est in schemes:
            est.on_dispatch(0, 1)
            with pytest.raises(ValueError):
                est.on_block(0, 1, -1)


class TestLazyDecay:
    def test_independent_thread_decays(self, schemes, model):
        for est in schemes:
            est.on_dispatch(0, 1)
            est.on_block(0, 1, 40)
            s = est.current_footprint(0, 1)
            est.on_dispatch(0, 2)
            est.on_block(0, 2, 25)
            assert est.current_footprint(0, 1) == pytest.approx(
                model.expected_independent(s, 25)
            )

    def test_unknown_thread_has_zero_footprint(self, schemes):
        for est in schemes:
            assert est.current_footprint(0, 42) == 0.0

    def test_cumulative_misses_per_cpu(self, schemes):
        for est in schemes:
            est.on_dispatch(0, 1)
            est.on_block(0, 1, 40)
            assert est.cumulative_misses(0) == 40
            assert est.cumulative_misses(1) == 0

    def test_cpus_are_independent(self, schemes):
        for est in schemes:
            est.on_dispatch(0, 1)
            est.on_block(0, 1, 40)
            assert est.current_footprint(1, 1) == 0.0


class TestDependentUpdates:
    def test_matches_case3(self, model, graph):
        graph.share(1, 2, 0.5)
        for est in _schemes(model, graph, num_cpus=1):
            est.on_dispatch(0, 1)
            est.on_block(0, 1, 40)
            assert est.current_footprint(0, 2) == pytest.approx(
                model.expected_dependent(0, 0.5, 40)
            )

    def test_only_out_edges_update(self, model, graph):
        graph.share(2, 1, 0.5)  # 1 depends on 2, not vice versa
        for est in _schemes(model, graph, num_cpus=1):
            est.on_dispatch(0, 1)
            est.on_block(0, 1, 40)
            assert est.current_footprint(0, 2) == 0.0

    def test_dependent_decays_before_dependent_update(self, model, graph):
        """A dependent's stale value is first decayed to the interval
        start, then the case-3 update is applied."""
        graph.share(1, 2, 0.5)
        for est in _schemes(model, graph, num_cpus=1):
            # give thread 2 its own state first
            est.on_dispatch(0, 2)
            est.on_block(0, 2, 30)
            s2 = est.current_footprint(0, 2)
            # an unrelated interval decays it
            est.on_dispatch(0, 3)
            est.on_block(0, 3, 20)
            decayed = model.expected_independent(s2, 20)
            # now thread 1 runs: dependent update from the decayed base
            est.on_dispatch(0, 1)
            est.on_block(0, 1, 10)
            assert est.current_footprint(0, 2) == pytest.approx(
                model.expected_dependent(decayed, 0.5, 10)
            )
