"""Tests for the direct-mapped and set-associative cache simulators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine.cache import (
    DirectMappedCache,
    SetAssociativeCache,
    _net_effect,
)


def lines(*values):
    return np.asarray(values, dtype=np.int64)


class TestDirectMapped:
    def make(self, num_lines=16):
        return DirectMappedCache(num_lines * 64, 64)

    def test_cold_accesses_all_miss(self):
        cache = self.make()
        result = cache.access(lines(1, 2, 3))
        assert result.misses == 3
        assert result.hits == 0

    def test_repeat_accesses_all_hit(self):
        cache = self.make()
        cache.access(lines(1, 2, 3))
        result = cache.access(lines(1, 2, 3))
        assert result.hits == 3
        assert result.misses == 0

    def test_conflicting_line_evicts(self):
        cache = self.make(num_lines=16)
        cache.access(lines(1))
        result = cache.access(lines(17))  # same index: 17 % 16 == 1
        assert result.misses == 1
        assert result.evicted.tolist() == [1]
        assert not cache.contains(1)
        assert cache.contains(17)

    def test_empty_batch(self):
        cache = self.make()
        result = cache.access(np.empty(0, dtype=np.int64))
        assert result.refs == 0

    def test_stats_accumulate(self):
        cache = self.make()
        cache.access(lines(1, 2))
        cache.access(lines(1, 2))
        assert cache.stats.refs == 4
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2

    def test_miss_rate(self):
        cache = self.make()
        cache.access(lines(1))
        cache.access(lines(1))
        assert cache.stats.miss_rate == 0.5

    def test_colliding_batch_matches_line_at_a_time(self):
        """A batch with duplicate indices must produce the same counts as
        issuing the lines one by one."""
        batch = lines(1, 17, 1, 33, 2)  # indices 1,1,1,1,2 in a 16-line cache
        batched = DirectMappedCache(16 * 64, 64)
        result = batched.access(batch)
        oracle = DirectMappedCache(16 * 64, 64)
        hits = misses = 0
        for v in batch:
            r = oracle.access(lines(int(v)))
            hits += r.hits
            misses += r.misses
        assert (result.hits, result.misses) == (hits, misses)

    def test_net_installed_excludes_transients(self):
        """A line installed then evicted within one batch appears in
        neither net list."""
        cache = self.make(num_lines=16)
        result = cache.access(lines(1, 17))  # 1 installed, then evicted by 17
        assert 1 not in result.installed.tolist()
        assert 1 not in result.evicted.tolist()
        assert result.installed.tolist() == [17]
        assert result.misses == 2  # raw miss count is unaffected

    def test_invalidate_removes_resident(self):
        cache = self.make()
        cache.access(lines(1, 2))
        removed = cache.invalidate(lines(1, 5))
        assert removed == 1
        assert not cache.contains(1)
        assert cache.contains(2)
        assert cache.stats.invalidations == 1

    def test_invalidate_requires_exact_line(self):
        cache = self.make(num_lines=16)
        cache.access(lines(17))
        assert cache.invalidate(lines(1)) == 0  # same index, different line

    def test_flush_evicts_everything(self):
        cache = self.make()
        cache.access(lines(1, 2, 3))
        assert cache.flush() == 3
        assert cache.resident_lines().size == 0

    def test_flush_notifies_evict_listener(self):
        cache = self.make()
        seen = []
        cache.on_evict(lambda arr: seen.extend(arr.tolist()))
        cache.access(lines(1, 2))
        cache.flush()
        assert sorted(seen) == [1, 2]

    def test_install_listener_sees_installed(self):
        cache = self.make()
        seen = []
        cache.on_install(lambda arr: seen.extend(arr.tolist()))
        cache.access(lines(4, 5))
        assert sorted(seen) == [4, 5]

    def test_resident_lines_reflect_contents(self):
        cache = self.make()
        cache.access(lines(3, 9))
        assert sorted(cache.resident_lines().tolist()) == [3, 9]

    def test_index_of(self):
        cache = self.make(num_lines=16)
        assert cache.index_of(35) == 3

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            DirectMappedCache(100, 64)
        with pytest.raises(ValueError):
            DirectMappedCache(0, 64)


def _replay(resident, batch, num_lines):
    """Line-at-a-time direct-mapped replay: (hits, residency after)."""
    resident = dict(resident)
    hits = 0
    for pline in batch:
        if resident.get(pline % num_lines) == pline:
            hits += 1
        else:
            resident[pline % num_lines] = pline
    return hits, resident


@st.composite
def _batches(draw):
    """A cache size and batches over 2-4x its lines, so collisions are
    common; sizes include empty and one-line batches."""
    num_lines = draw(st.sampled_from([16, 12]))
    span = num_lines * draw(st.integers(2, 4))
    batch = st.lists(st.integers(0, span - 1), max_size=3 * num_lines)
    short = st.lists(st.integers(0, span - 1), max_size=1)
    return num_lines, draw(st.lists(st.one_of(short, batch), max_size=6))


@given(_batches())
@settings(max_examples=200, deadline=None)
def test_direct_mapped_access_matches_line_at_a_time(case):
    num_lines, batches = case
    cache = DirectMappedCache(num_lines * 64, 64)
    seen = {"in": [], "out": []}
    cache.on_install(lambda arr: seen["in"].append(arr.tolist()))
    cache.on_evict(lambda arr: seen["out"].append(arr.tolist()))
    resident = {}
    for batch in batches:
        seen["in"].clear()
        seen["out"].clear()
        result = cache.access(np.asarray(batch, dtype=np.int64))
        hits, after = _replay(resident, batch, num_lines)
        assert (result.refs, result.hits, result.misses) == (
            len(batch), hits, len(batch) - hits
        )
        before_lines, after_lines = set(resident.values()), set(after.values())
        installed = [p for arr in seen["in"] for p in arr]
        evicted = [p for arr in seen["out"] for p in arr]
        assert installed == result.installed.tolist()
        assert evicted == result.evicted.tolist()
        assert len(set(installed)) == len(installed)
        assert len(set(evicted)) == len(evicted)
        assert set(installed) == after_lines - before_lines
        assert set(evicted) == before_lines - after_lines
        assert set(cache.resident_lines().tolist()) == after_lines
        resident = after


class TestSetAssociative:
    def make(self, num_lines=16, ways=4):
        return SetAssociativeCache(num_lines * 64, 64, ways=ways)

    def test_conflicts_tolerated_up_to_ways(self):
        cache = self.make(num_lines=16, ways=4)  # 4 sets
        same_set = lines(0, 4, 8, 12)  # all map to set 0
        cache.access(same_set)
        result = cache.access(same_set)
        assert result.hits == 4

    def test_lru_eviction(self):
        cache = self.make(num_lines=8, ways=2)  # 4 sets
        cache.access(lines(0))
        cache.access(lines(4))
        cache.access(lines(0))  # refresh 0
        result = cache.access(lines(8))  # set 0 full: evict LRU = 4
        assert result.evicted.tolist() == [4]
        assert cache.contains(0)

    def test_one_way_behaves_direct_mapped(self):
        assoc = self.make(num_lines=16, ways=1)
        direct = DirectMappedCache(16 * 64, 64)
        rng = np.random.default_rng(0)
        batch = rng.integers(0, 64, size=200).astype(np.int64)
        for v in batch:
            a = assoc.access(lines(int(v)))
            d = direct.access(lines(int(v)))
            assert a.hits == d.hits

    def test_invalidate(self):
        cache = self.make()
        cache.access(lines(1, 2))
        assert cache.invalidate(lines(1)) == 1
        assert not cache.contains(1)

    def test_flush(self):
        cache = self.make()
        cache.access(lines(1, 2, 3))
        assert cache.flush() == 3
        assert cache.resident_lines().size == 0

    def test_ways_must_divide_lines(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(16 * 64, 64, ways=3)


class TestNetEffect:
    def test_pure_install(self):
        net_in, net_out = _net_effect([1, 2], [])
        assert sorted(net_in.tolist()) == [1, 2]
        assert net_out.size == 0

    def test_install_then_evict_cancels(self):
        net_in, net_out = _net_effect([1], [1])
        assert net_in.size == 0
        assert net_out.size == 0

    def test_evict_then_reinstall_cancels(self):
        net_in, net_out = _net_effect([5, 7], [7])
        assert net_in.tolist() == [5]
        assert net_out.size == 0

    def test_pure_evict(self):
        net_in, net_out = _net_effect([], [3])
        assert net_out.tolist() == [3]


@st.composite
def _one_line_ops(draw):
    """A cache size (a power of two, indexed by mask, or not, indexed by
    modulo) and one-line accesses and invalidations over 2-4x its lines."""
    num_lines = draw(st.sampled_from([16, 12]))
    span = num_lines * draw(st.integers(2, 4))
    op = st.tuples(st.sampled_from(["access", "invalidate"]),
                   st.integers(0, span - 1))
    return num_lines, draw(st.lists(op, max_size=40))


@given(_one_line_ops())
@example((16, [("access", 0), ("access", 16), ("invalidate", 16)]))
@settings(max_examples=200, deadline=None)
def test_one_line_access_and_invalidate_match_line_at_a_time(case):
    num_lines, ops = case
    cache = DirectMappedCache(num_lines * 64, 64)
    seen = {"in": [], "out": []}
    cache.on_install(lambda arr: seen["in"].append((arr.dtype, arr.tolist())))
    cache.on_evict(lambda arr: seen["out"].append((arr.dtype, arr.tolist())))
    resident = {}
    stats = dict(refs=0, hits=0, misses=0, invalidations=0)
    for op, pline in ops:
        seen["in"].clear()
        seen["out"].clear()
        index = pline % num_lines
        before = resident.get(index)
        if op == "access":
            result = cache.access(lines(pline))
            hit = before == pline
            resident[index] = pline
            stats["refs"] += 1
            stats["hits" if hit else "misses"] += 1
            installed = [] if hit else [pline]
            evicted = [] if hit or before is None else [before]
            assert (result.refs, result.hits, result.misses) == (
                1, int(hit), int(not hit)
            )
            assert result.installed.dtype == result.evicted.dtype == np.int64
            assert result.installed.tolist() == installed
            assert result.evicted.tolist() == evicted
        else:
            dropped = cache.invalidate(lines(pline))
            held = before == pline
            if held:
                del resident[index]
            stats["invalidations"] += int(held)
            installed, evicted = [], [pline] if held else []
            assert dropped == int(held)
        assert seen["in"] == ([(np.int64, installed)] if installed else [])
        assert seen["out"] == ([(np.int64, evicted)] if evicted else [])
        assert cache.stats.snapshot() == stats
        assert sorted(cache.resident_lines().tolist()) == sorted(
            resident.values()
        )
