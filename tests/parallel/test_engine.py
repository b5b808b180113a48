"""Unit tests for the :mod:`repro.parallel` execution engine."""

import pytest

from repro.parallel import (
    Shard,
    ShardError,
    merged_values,
    resolve_callable,
    run_shards,
)

SQUARE = "tests.parallel.workers:square"
RAISE_ONCE = "tests.parallel.workers:raise_once"
DIE_ONCE = "tests.parallel.workers:die_once"
ALWAYS_RAISE = "tests.parallel.workers:always_raise"


def squares(n):
    return [
        Shard(index=i, key=f"sq/{i}", fn=SQUARE, params={"x": i})
        for i in range(n)
    ]


class TestResolveCallable:
    def test_resolves_by_dotted_path(self):
        assert resolve_callable(SQUARE)(x=3) == 9

    @pytest.mark.parametrize("path", ["square", "tests.parallel.workers:",
                                      ":square", "no.colon.here"])
    def test_malformed_path_rejected(self, path):
        with pytest.raises(ValueError):
            resolve_callable(path)

    def test_non_callable_target_rejected(self):
        with pytest.raises(TypeError):
            resolve_callable("tests.parallel.workers:NOT_CALLABLE")

    def test_missing_attribute_raises(self):
        with pytest.raises(AttributeError):
            resolve_callable("tests.parallel.workers:nope")


class TestValidation:
    def test_duplicate_index_rejected(self):
        shards = [
            Shard(index=0, key="a", fn=SQUARE, params={"x": 1}),
            Shard(index=0, key="b", fn=SQUARE, params={"x": 2}),
        ]
        with pytest.raises(ValueError, match="duplicate shard index"):
            run_shards(shards)

    def test_duplicate_key_rejected(self):
        shards = [
            Shard(index=0, key="a", fn=SQUARE, params={"x": 1}),
            Shard(index=1, key="a", fn=SQUARE, params={"x": 2}),
        ]
        with pytest.raises(ValueError, match="duplicate shard key"):
            run_shards(shards)

    def test_jobs_and_retries_bounds(self):
        with pytest.raises(ValueError):
            run_shards(squares(2), jobs=0)
        with pytest.raises(ValueError):
            run_shards(squares(2), retries=-1)


class TestSerial:
    def test_outcomes_sorted_by_index_regardless_of_input_order(self):
        shards = squares(5)
        outcomes = run_shards(list(reversed(shards)), jobs=1)
        assert [o.shard.index for o in outcomes] == [0, 1, 2, 3, 4]
        assert merged_values(outcomes) == [0, 1, 4, 9, 16]

    def test_clean_run_is_single_attempt(self):
        (outcome,) = run_shards(squares(1), jobs=1)
        assert outcome.ok
        assert outcome.attempts == 1
        assert outcome.worker_crashes == 0

    def test_raising_shard_retried_once_then_succeeds(self, tmp_path):
        flag = str(tmp_path / "flag")
        shard = Shard(index=0, key="r", fn=RAISE_ONCE,
                      params={"flag": flag, "value": 7})
        (outcome,) = run_shards([shard], jobs=1)
        assert outcome.ok
        assert outcome.value == 7
        assert outcome.attempts == 2

    def test_exhausted_retries_raise_shard_error(self):
        shard = Shard(index=0, key="bad", fn=ALWAYS_RAISE)
        with pytest.raises(ShardError) as excinfo:
            run_shards([shard], jobs=1, retries=1)
        err = excinfo.value
        assert len(err.failed) == 1
        assert err.failed[0].attempts == 2
        assert "ValueError: boom" in err.failed[0].error

    def test_partial_mode_returns_failed_outcomes(self):
        shards = squares(2) + [
            Shard(index=2, key="bad", fn=ALWAYS_RAISE)
        ]
        outcomes = run_shards(shards, jobs=1, retries=0, partial=True)
        assert [o.ok for o in outcomes] == [True, True, False]
        assert merged_values(outcomes) == [0, 1]

    def test_progress_reports_every_shard(self):
        seen = []
        run_shards(
            squares(3), jobs=1,
            progress=lambda o, done, total: seen.append(
                (o.shard.key, done, total)
            ),
        )
        assert seen == [("sq/0", 1, 3), ("sq/1", 2, 3), ("sq/2", 3, 3)]


class TestPool:
    def test_pool_matches_serial_bit_for_bit(self):
        serial = run_shards(squares(8), jobs=1)
        pooled = run_shards(squares(8), jobs=4)
        assert merged_values(pooled) == merged_values(serial)
        assert [o.shard.key for o in pooled] == [o.shard.key for o in serial]

    def test_raising_shard_retried_in_pool(self, tmp_path):
        flag = str(tmp_path / "flag")
        shards = squares(3) + [
            Shard(index=3, key="r", fn=RAISE_ONCE,
                  params={"flag": flag, "value": 7})
        ]
        outcomes = run_shards(shards, jobs=2)
        assert all(o.ok for o in outcomes)
        assert merged_values(outcomes) == [0, 1, 4, 7]
        assert outcomes[3].attempts == 2

    def test_killed_worker_breaks_pool_and_shard_is_retried(self, tmp_path):
        flag = str(tmp_path / "flag")
        shards = squares(3) + [
            Shard(index=3, key="die", fn=DIE_ONCE,
                  params={"flag": flag, "value": 9})
        ]
        outcomes = run_shards(shards, jobs=2)
        assert all(o.ok for o in outcomes)
        assert merged_values(outcomes) == [0, 1, 4, 9]
        # the killer itself must have been charged a crash; innocent
        # bystanders may or may not have been (the pool cannot attribute
        # the death), but every shard still produced its value
        assert outcomes[3].worker_crashes >= 1
        assert outcomes[3].attempts >= 2

    def test_pool_partial_mode_isolates_the_failure(self):
        shards = squares(3) + [
            Shard(index=3, key="bad", fn=ALWAYS_RAISE)
        ]
        outcomes = run_shards(shards, jobs=2, retries=0, partial=True)
        assert [o.ok for o in outcomes] == [True, True, True, False]
        assert merged_values(outcomes) == [0, 1, 4]

    def test_pool_failure_raises_shard_error_when_not_partial(self):
        shards = [Shard(index=0, key="bad", fn=ALWAYS_RAISE)] + [
            Shard(index=1, key="ok", fn=SQUARE, params={"x": 5})
        ]
        with pytest.raises(ShardError) as excinfo:
            run_shards(shards, jobs=2, retries=0)
        assert [o.ok for o in excinfo.value.outcomes] == [False, True]

    def test_pool_progress_covers_all_shards(self):
        seen = []
        run_shards(
            squares(5), jobs=2,
            progress=lambda o, done, total: seen.append((done, total)),
        )
        assert len(seen) == 5
        assert seen[-1] == (5, 5)


class TestProgressIsolation:
    """A bad progress observer must never abort or skew a run."""

    def test_raising_callback_does_not_abort_the_run(self):
        def bad_progress(outcome, done, total):
            raise RuntimeError("observer bug")

        outcomes = run_shards(squares(4), progress=bad_progress)
        assert [o.ok for o in outcomes] == [True] * 4
        assert merged_values(outcomes) == [0, 1, 4, 9]

    def test_callback_fault_is_logged_once_but_still_invoked(self, caplog):
        import logging

        calls = []

        def flaky_progress(outcome, done, total):
            calls.append(done)
            raise RuntimeError("observer bug")

        with caplog.at_level(logging.ERROR, logger="repro.parallel"):
            run_shards(squares(4), progress=flaky_progress)
        # every shard still reached the callback ...
        assert calls == [1, 2, 3, 4]
        # ... but the fault was logged exactly once
        faults = [
            r for r in caplog.records if "progress callback" in r.message
        ]
        assert len(faults) == 1

    def test_callback_fault_does_not_skew_outcomes(self, tmp_path):
        # a raising observer alongside a retried shard: attempt counts
        # and values match the observer-free run exactly
        def shards():
            return [
                Shard(index=0, key="r", fn=RAISE_ONCE,
                      params={"flag": str(tmp_path / "flag"), "value": 7})
            ] + [
                Shard(index=i, key=f"sq/{i}", fn=SQUARE, params={"x": i})
                for i in range(1, 4)
            ]

        noisy = run_shards(
            shards(), progress=lambda *a: (_ for _ in ()).throw(ValueError())
        )
        (tmp_path / "flag").unlink()
        quiet = run_shards(shards())
        assert [o.value for o in noisy] == [o.value for o in quiet]
        assert [o.attempts for o in noisy] == [o.attempts for o in quiet]


class TestAttemptAudit:
    """Per-attempt history on outcomes."""

    def test_clean_run_has_empty_history(self):
        outcomes = run_shards(squares(2))
        for o in outcomes:
            assert o.history == ()
            assert o.cached is False

    def test_retried_shard_records_each_failed_attempt(self, tmp_path):
        shard = Shard(index=0, key="r", fn=RAISE_ONCE,
                      params={"flag": str(tmp_path / "flag"), "value": 3})
        (outcome,) = run_shards([shard])
        assert outcome.ok and outcome.attempts == 2
        assert len(outcome.history) == 1
        assert "injected first-attempt failure" in outcome.history[0]

    def test_exhausted_shard_history_covers_every_attempt(self):
        shard = Shard(index=0, key="bad", fn=ALWAYS_RAISE)
        (outcome,) = run_shards([shard], retries=2, partial=True)
        assert not outcome.ok
        assert outcome.attempts == 3
        assert len(outcome.history) == 3
        assert all("boom" in entry for entry in outcome.history)

    def test_pool_crash_appears_in_history(self, tmp_path):
        shards = squares(3) + [
            Shard(index=3, key="die", fn=DIE_ONCE,
                  params={"flag": str(tmp_path / "flag"), "value": 9})
        ]
        outcomes = run_shards(shards, jobs=2)
        assert outcomes[3].ok and outcomes[3].worker_crashes >= 1
        assert any(
            "worker process died" in entry for entry in outcomes[3].history
        )

    def test_shard_error_detail_includes_attempts_and_history(self):
        shard = Shard(index=0, key="bad", fn=ALWAYS_RAISE)
        with pytest.raises(ShardError) as excinfo:
            run_shards([shard], retries=1)
        text = str(excinfo.value)
        assert "attempt 2" in text
        assert "earlier:" in text
