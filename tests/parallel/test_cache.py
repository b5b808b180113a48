"""The content-addressed result cache: fingerprints and resumability."""

import pickle

import pytest

from repro.parallel import ResultCache, Shard, run_shards
from repro.parallel.cache import (
    canonical_params,
    code_version,
    shard_fingerprint,
)

SQUARE = "tests.parallel.workers:square"
COUNT = "tests.parallel.workers:count_calls"


def _shard(index=0, key="s", fn=SQUARE, **params):
    return Shard(index=index, key=key, fn=fn, params=params)


class TestCanonicalEncoding:
    def test_dict_insertion_order_does_not_matter(self):
        a = Shard(index=0, key="a", fn=SQUARE, params={"x": 1, "y": 2})
        b = Shard(index=0, key="a", fn=SQUARE, params={"y": 2, "x": 1})
        assert canonical_params(a) == canonical_params(b)

    def test_set_order_does_not_matter(self):
        a = _shard(tags={"x", "y", "z"})
        b = _shard(tags={"z", "y", "x"})
        assert canonical_params(a) == canonical_params(b)

    def test_different_values_differ(self):
        assert canonical_params(_shard(x=1)) != canonical_params(_shard(x=2))

    def test_type_is_part_of_the_encoding(self):
        # 1 and True compare equal in Python; their results may differ
        assert canonical_params(_shard(x=1)) != canonical_params(
            _shard(x=True)
        )

    def test_nested_containers_encode_deterministically(self):
        params = {"cfg": {"b": [1, 2], "a": (3, {"k"})}, "n": 5}
        a = Shard(index=0, key="a", fn=SQUARE, params=params)
        b = Shard(index=0, key="a", fn=SQUARE, params=dict(params))
        assert canonical_params(a) == canonical_params(b)


class TestFingerprint:
    def test_depends_on_fn_params_and_version(self):
        base = shard_fingerprint(_shard(x=1), version="v1")
        assert shard_fingerprint(_shard(x=2), version="v1") != base
        assert (
            shard_fingerprint(_shard(x=1, fn=COUNT), version="v1") != base
        )
        assert shard_fingerprint(_shard(x=1), version="v2") != base

    def test_index_and_key_are_not_part_of_the_address(self):
        # the same cell at a different position in a later campaign must
        # still hit
        a = Shard(index=0, key="first", fn=SQUARE, params={"x": 1})
        b = Shard(index=9, key="other", fn=SQUARE, params={"x": 1})
        assert shard_fingerprint(a, "v") == shard_fingerprint(b, "v")

    def test_code_version_tracks_source_changes(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text("A = 1\n")
        before = code_version(str(pkg))
        assert code_version(str(pkg)) == before
        (pkg / "mod.py").write_text("A = 2\n")
        assert code_version(str(pkg)) != before


class TestResultCache:
    def test_store_then_lookup(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v")
        shard = _shard(x=3)
        assert cache.lookup(shard) == (False, None)
        cache.store(shard, 9)
        assert cache.lookup(shard) == (True, 9)
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_corrupt_entry_is_a_miss_not_a_failure(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v")
        shard = _shard(x=3)
        cache.store(shard, 9)
        path = cache._path(shard_fingerprint(shard, "v"))
        with open(path, "wb") as fh:
            fh.write(b"\x00garbage")
        assert cache.lookup(shard) == (False, None)

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v")
        shard = _shard(x=3)
        cache.store(shard, {"big": list(range(100))})
        path = cache._path(shard_fingerprint(shard, "v"))
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert cache.lookup(shard)[0] is False

    def test_version_change_invalidates(self, tmp_path):
        old = ResultCache(str(tmp_path), version="v1")
        old.store(_shard(x=3), 9)
        new = ResultCache(str(tmp_path), version="v2")
        assert new.lookup(_shard(x=3)) == (False, None)

    def test_unwritable_root_degrades_to_no_op(self, tmp_path):
        missing = tmp_path / "file-not-dir"
        missing.write_text("in the way")
        cache = ResultCache(str(missing), version="v")
        cache.store(_shard(x=3), 9)  # must not raise
        assert cache.stores == 0

    def test_no_entry_is_ever_half_written(self, tmp_path):
        # whatever is on disk must unpickle completely or be absent
        cache = ResultCache(str(tmp_path), version="v")
        cache.store(_shard(x=3), list(range(1000)))
        for path in tmp_path.rglob("*.pkl"):
            with open(path, "rb") as fh:
                pickle.load(fh)
        assert not list(tmp_path.rglob("*.tmp"))


class TestRunShardsWithCache:
    def _counting_shards(self, tmp_path, n=4):
        counter = tmp_path / "executions"
        return counter, [
            Shard(index=i, key=f"c/{i}", fn=COUNT,
                  params={"counter": str(counter), "value": i * 10})
            for i in range(n)
        ]

    def test_cold_run_executes_and_stores(self, tmp_path):
        counter, shards = self._counting_shards(tmp_path)
        cache = ResultCache(str(tmp_path / "cache"), version="v")
        outcomes = run_shards(shards, cache=cache)
        assert [o.value for o in outcomes] == [0, 10, 20, 30]
        assert counter.read_text() == "xxxx"
        assert cache.stores == 4
        assert all(not o.cached for o in outcomes)

    def test_warm_run_executes_zero_cells(self, tmp_path):
        counter, shards = self._counting_shards(tmp_path)
        cache = ResultCache(str(tmp_path / "cache"), version="v")
        cold = run_shards(shards, cache=cache)
        warm = run_shards(shards, cache=ResultCache(
            str(tmp_path / "cache"), version="v"
        ))
        assert counter.read_text() == "xxxx"  # no new executions
        assert [o.value for o in warm] == [o.value for o in cold]
        for o in warm:
            assert o.cached is True
            assert o.attempts == 0
            assert o.history == ()

    def test_partially_warm_run_executes_only_the_missing_cells(
        self, tmp_path
    ):
        counter, shards = self._counting_shards(tmp_path)
        cache = ResultCache(str(tmp_path / "cache"), version="v")
        run_shards(shards[:2], cache=cache)
        outcomes = run_shards(shards, cache=ResultCache(
            str(tmp_path / "cache"), version="v"
        ))
        assert counter.read_text() == "xxxx"  # 2 cold + 2 resumed
        assert [o.cached for o in outcomes] == [True, True, False, False]
        assert [o.value for o in outcomes] == [0, 10, 20, 30]

    def test_failed_shards_are_not_cached(self, tmp_path):
        bad = Shard(index=0, key="bad",
                    fn="tests.parallel.workers:always_raise")
        cache = ResultCache(str(tmp_path / "cache"), version="v")
        first = run_shards([bad], retries=0, partial=True, cache=cache)
        assert not first[0].ok and cache.stores == 0
        again = run_shards([bad], retries=0, partial=True, cache=ResultCache(
            str(tmp_path / "cache"), version="v"
        ))
        assert not again[0].cached  # failures must re-execute

    def test_progress_counts_cached_shards(self, tmp_path):
        counter, shards = self._counting_shards(tmp_path)
        cache = ResultCache(str(tmp_path / "cache"), version="v")
        run_shards(shards, cache=cache)
        seen = []
        run_shards(
            shards,
            cache=ResultCache(str(tmp_path / "cache"), version="v"),
            progress=lambda o, done, total: seen.append(
                (o.shard.index, done, total, o.cached)
            ),
        )
        assert seen == [(0, 1, 4, True), (1, 2, 4, True),
                        (2, 3, 4, True), (3, 4, 4, True)]
