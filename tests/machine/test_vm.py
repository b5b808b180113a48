"""Tests for virtual memory and page placement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.vm import (
    KesslerHillPlacement,
    NaivePlacement,
    VirtualMemory,
)


def make_vm(policy_cls=KesslerHillPlacement, cache_bytes=16 * 1024,
            page_bytes=2048, seed=0):
    num_bins = cache_bytes // page_bytes
    policy = policy_cls(num_bins, rng=np.random.default_rng(seed))
    return VirtualMemory(
        cache_bytes=cache_bytes,
        page_bytes=page_bytes,
        line_bytes=64,
        policy=policy,
    )


def first_lines(vm, vpages):
    """Physical line of the first line of each of ``vpages``."""
    vlines = np.asarray(vpages, dtype=np.int64) * vm.lines_per_page
    return vm.translate_lines(vlines).tolist()


class TestTranslation:
    def test_translation_is_stable(self):
        vm = make_vm()
        first = first_lines(vm, [5])
        assert first_lines(vm, [5]) == first

    def test_distinct_vpages_get_distinct_frames(self):
        vm = make_vm()
        assert len(set(first_lines(vm, range(50)))) == 50

    def test_page_faults_counted_once_per_page(self):
        vm = make_vm()
        first_lines(vm, [1])
        first_lines(vm, [1])
        first_lines(vm, [2])
        assert vm.page_faults == 2

    def test_translate_lines_preserves_offsets(self):
        vm = make_vm()
        lpp = vm.lines_per_page
        vlines = np.asarray([0, 1, lpp, lpp + 3], dtype=np.int64)
        plines = vm.translate_lines(vlines)
        assert plines[1] - plines[0] == 1
        assert plines[3] - plines[2] == 3

    def test_translate_lines_empty(self):
        vm = make_vm()
        assert vm.translate_lines(np.empty(0, dtype=np.int64)).size == 0

    def test_frame_color_matches_bin(self):
        vm = make_vm()
        (pline,) = first_lines(vm, [3])
        ppage = pline // vm.lines_per_page
        # the frame's bin is encoded in its low bits
        assert 0 <= ppage % vm.num_bins < vm.num_bins

    def test_reverse_line_roundtrip(self):
        vm = make_vm()
        vlines = np.arange(200, dtype=np.int64)
        plines = vm.translate_lines(vlines)
        back = vm.reverse_lines(plines)
        assert back.tolist() == vlines.tolist()

    def test_reverse_unmapped_line_is_none(self):
        vm = make_vm()
        first_lines(vm, [0])
        lpp = vm.lines_per_page
        # an unmapped frame inside the table, and one past its end
        out = vm.reverse_lines(np.asarray([lpp + 1, 123456], dtype=np.int64))
        assert out.tolist() == [-1, -1]

    def test_reverse_lines_unmapped_marked(self):
        vm = make_vm()
        out = vm.reverse_lines(np.asarray([999999], dtype=np.int64))
        assert out.tolist() == [-1]

    def test_mapped_pages(self):
        vm = make_vm()
        first_lines(vm, [0, 9])
        first_lines(vm, [9, 0])
        assert vm.page_faults == 2

    def test_cache_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            VirtualMemory(cache_bytes=5000, page_bytes=2048)

    def test_policy_geometry_checked(self):
        policy = KesslerHillPlacement(4)
        with pytest.raises(ValueError):
            VirtualMemory(cache_bytes=16 * 1024, page_bytes=2048, policy=policy)


class TestPlacementPolicies:
    def test_naive_bins_in_range(self):
        policy = NaivePlacement(8, rng=np.random.default_rng(0))
        for v in range(100):
            assert 0 <= policy.choose_bin(v) < 8

    def test_kessler_hill_balances_loads(self):
        policy = KesslerHillPlacement(8, rng=np.random.default_rng(0))
        bins = [policy.choose_bin(v) for v in range(64)]
        counts = np.bincount(bins, minlength=8)
        # perfectly uniform colors must balance to 8 per bin
        assert counts.max() - counts.min() <= 1

    def test_kessler_hill_same_color_spreads_within_group(self):
        policy = KesslerHillPlacement(64, rng=np.random.default_rng(0))
        # pages all preferring color 0 can use bins 0..3 (the color group)
        bins = {policy.choose_bin(64 * i) for i in range(4)}
        assert bins == {0, 1, 2, 3}

    def test_kessler_hill_reset(self):
        policy = KesslerHillPlacement(8, rng=np.random.default_rng(0))
        for v in range(20):
            policy.choose_bin(v)
        policy.reset()
        assert policy._bin_load.sum() == 0

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            NaivePlacement(0)

    def test_identical_sequences_do_not_align(self):
        """Two identical fault sequences (e.g. two same-shape arrays) must
        not land page-for-page on identical bins -- the alignment would
        make every row pair conflict."""
        policy = KesslerHillPlacement(64, rng=np.random.default_rng(1))
        first = [policy.choose_bin(v) for v in range(64)]
        second = [policy.choose_bin(64 + v) for v in range(64)]
        aligned = sum(1 for a, b in zip(first, second) if a == b)
        assert aligned < 40  # not systematically aligned


class _ScalarPageTable:
    """Reference model: dict page tables, one translation per page.

    Each batch's distinct pages are translated one at a time in ascending
    order, each faulting through the placement policy if unmapped -- the
    fault order the array tables must reproduce.
    """

    def __init__(self, vm_args):
        self.vm = make_vm(**vm_args)
        self.v2p = {}
        self.page_faults = 0

    def translate_lines(self, vlines):
        vm = self.vm
        lpp = vm.lines_per_page
        for vpage in sorted({v // lpp for v in vlines}):
            if vpage not in self.v2p:
                self.page_faults += 1
                color = vm.policy.choose_bin(vpage)
                self.v2p[vpage] = vm._next_frame_in_bin[color]
                vm._next_frame_in_bin[color] += vm.num_bins
        return [self.v2p[v // lpp] * lpp + v % lpp for v in vlines]


class TestArrayPageTables:
    @settings(max_examples=60, deadline=None)
    @given(
        policy=st.sampled_from([KesslerHillPlacement, NaivePlacement]),
        seed=st.integers(0, 2**16),
        batches=st.lists(
            st.lists(
                # lines 32 to a page: up to 4,000 pages, far past any
                # table built so far, so batches also fault pages in
                # beyond the end of the current table
                st.one_of(st.integers(0, 255), st.integers(0, 4000 * 32)),
                min_size=1,
                max_size=48,
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_translate_lines_matches_scalar_reference(self, policy, seed, batches):
        vm_args = dict(policy_cls=policy, seed=seed)
        vm = make_vm(**vm_args)
        reference = _ScalarPageTable(vm_args)
        for batch in batches:
            vlines = np.asarray(batch, dtype=np.int64)
            plines = vm.translate_lines(vlines)
            assert plines.tolist() == reference.translate_lines(batch)
            assert vm.page_faults == reference.page_faults
            assert (
                vm.policy.rng.bit_generator.state
                == reference.vm.policy.rng.bit_generator.state
            )
            assert vm.reverse_lines(plines).tolist() == batch
        vpages = sorted(reference.v2p)
        lpp = vm.lines_per_page
        assert first_lines(vm, vpages) == [reference.v2p[v] * lpp for v in vpages]
        assert vm.page_faults == reference.page_faults == len(vpages)

    def test_page_past_the_table_faults(self):
        vm = make_vm()
        lpp = vm.lines_per_page
        (page0,) = first_lines(vm, [0])
        far = np.asarray([1000 * lpp + 3], dtype=np.int64)
        pline = int(vm.translate_lines(far)[0])
        assert vm.page_faults == 2
        assert pline // lpp != page0 // lpp
        back = vm.reverse_lines(np.asarray([pline, 10**9], dtype=np.int64))
        assert back.tolist() == [1000 * lpp + 3, -1]

    def test_negative_page_rejected(self):
        # page 0 mapped to a frame past 0: a negative line clipped onto it
        # would read as a mapped physical line
        vm = make_vm()
        page0, _ = first_lines(vm, [0, 1])
        assert page0 > 0
        with pytest.raises(ValueError):
            vm.translate_lines(np.asarray([3, -1], dtype=np.int64))
        assert vm.page_faults == 2


class TestOneLineTranslation:
    """A one-line batch is translated on Python scalars; a two-line batch
    of the same line takes the array path."""

    @settings(max_examples=60, deadline=None)
    @given(
        policy=st.sampled_from([KesslerHillPlacement, NaivePlacement]),
        seed=st.integers(0, 2**16),
        vlines=st.lists(
            # lines 32 to a page, as in TestArrayPageTables; negative
            # lines must be rejected by both paths alike
            st.one_of(
                st.integers(0, 255),
                st.integers(0, 4000 * 32),
                st.integers(-64, -1),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_one_line_matches_the_batch_path(self, policy, seed, vlines):
        scalar = make_vm(policy_cls=policy, seed=seed)
        batch = make_vm(policy_cls=policy, seed=seed)
        for vline in vlines:
            one = np.asarray([vline], dtype=np.int64)
            two = np.asarray([vline, vline], dtype=np.int64)
            if vline < 0:
                with pytest.raises(ValueError) as single_error:
                    scalar.translate_lines(one)
                with pytest.raises(ValueError) as batch_error:
                    batch.translate_lines(two)
                assert str(single_error.value) == str(batch_error.value)
            else:
                plines = scalar.translate_lines(one)
                assert plines.dtype == np.int64
                assert plines.tolist() == batch.translate_lines(two)[:1].tolist()
            assert scalar.page_faults == batch.page_faults
            assert scalar._next_frame_in_bin == batch._next_frame_in_bin
            assert (
                scalar.policy.rng.bit_generator.state
                == batch.policy.rng.bit_generator.state
            )
        assert scalar._v2p_shift.tolist() == batch._v2p_shift.tolist()
