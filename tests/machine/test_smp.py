"""Tests for the multiprocessor: directory, coherence, clocks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine.cache import DirectMappedCache, SetAssociativeCache
from repro.machine.configs import SMALL, ULTRA1
from repro.machine.counters import CounterEvent
from repro.machine.smp import LineDirectory, Machine


def lines(*values):
    return np.asarray(values, dtype=np.int64)


@st.composite
def _directory_ops(draw):
    """A cpu count, up to 70, and directory calls whose cpus favour the
    highest ids; few distinct lines, so batches repeat lines and cpus
    share them."""
    num_cpus = draw(st.one_of(st.integers(1, 8), st.integers(63, 70)))
    cpu = st.one_of(
        st.integers(0, num_cpus - 1),
        st.integers(max(0, num_cpus - 8), num_cpus - 1),
    )
    op = st.tuples(
        st.sampled_from(["add", "remove", "count", "copies"]),
        cpu,
        st.lists(st.integers(0, 11), max_size=8),
    )
    return num_cpus, draw(st.lists(op, max_size=60))


class TestLineDirectory:
    def test_add_and_holders(self):
        directory = LineDirectory(4)
        directory.add(0, lines(1, 2))
        directory.add(1, lines(2))
        copies = directory.remote_copies(lines(1, 2, 99), cpu_id=3)
        assert {c: held.tolist() for c, held in copies.items()} == {
            0: [1, 2], 1: [2]
        }

    def test_remove(self):
        directory = LineDirectory(4)
        directory.add(0, lines(1))
        directory.add(1, lines(1))
        directory.remove(0, lines(1))
        assert list(directory.remote_copies(lines(1), cpu_id=2)) == [1]
        directory.remove(1, lines(1))
        assert directory.remote_copies(lines(1), cpu_id=2) == {}
        assert directory.count_remote(lines(1), cpu_id=2) == 0

    def test_remove_unknown_is_noop(self):
        directory = LineDirectory(4)
        directory.remove(0, lines(5))  # no error

    def test_count_remote_excludes_the_asking_cpu(self):
        directory = LineDirectory(4)
        directory.add(0, lines(1))
        assert directory.count_remote(lines(1), cpu_id=0) == 0
        directory.add(1, lines(1))  # now held elsewhere too
        assert directory.count_remote(lines(1), cpu_id=0) == 1

    def test_remote_copies_order(self):
        directory = LineDirectory(4)
        directory.add(2, lines(7, 5))
        directory.add(1, lines(5))
        directory.add(0, lines(5))
        copies = directory.remote_copies(lines(7, 5, 9), cpu_id=0)
        assert [(c, held.tolist()) for c, held in copies.items()] == [
            (2, [7, 5]), (1, [5])
        ]

    def test_count_remote(self):
        directory = LineDirectory(4)
        directory.add(0, lines(1, 2))
        assert directory.count_remote(lines(1, 2, 3), cpu_id=1) == 2
        assert directory.count_remote(lines(1, 2, 3), cpu_id=0) == 0

    @settings(max_examples=150, deadline=None)
    @given(_directory_ops())
    @example((70, [("add", 69, [1]), ("add", 5, [1]), ("count", 69, [1])]))
    @example(
        (66, [("add", 65, [2, 2]), ("add", 1, [2]), ("remove", 65, [2]),
              ("copies", 0, [2])])
    )
    def test_matches_a_dict_of_sets(self, case):
        """Holder bitmasks against the sets they replace, past 64 cpus."""
        num_cpus, ops = case
        directory = LineDirectory(num_cpus)
        reference = _SetDirectory()
        for op, cpu, batch in ops:
            plines = np.asarray(batch, dtype=np.int64)
            if op == "add":
                directory.add(cpu, plines)
                reference.add(cpu, batch)
            elif op == "remove":
                directory.remove(cpu, plines)
                reference.remove(cpu, batch)
            elif op == "count":
                assert directory.count_remote(
                    plines, cpu
                ) == reference.count_remote(batch, cpu)
            else:
                copies = directory.remote_copies(plines, cpu)
                assert all(held.dtype == np.int64 for held in copies.values())
                assert [
                    (holder, held.tolist()) for holder, held in copies.items()
                ] == reference.remote_copies(batch, cpu)
        everything = np.arange(12, dtype=np.int64)
        for cpu in range(num_cpus):
            assert directory.count_remote(
                everything, cpu
            ) == reference.count_remote(range(12), cpu)


class _SetDirectory:
    """Reference directory: a set of holder cpus per line."""

    def __init__(self):
        self.holders = {}

    def add(self, cpu, batch):
        for pline in batch:
            self.holders.setdefault(pline, set()).add(cpu)

    def remove(self, cpu, batch):
        for pline in batch:
            cpus = self.holders.get(pline)
            if cpus is not None:
                cpus.discard(cpu)
                if not cpus:
                    del self.holders[pline]

    def count_remote(self, batch, cpu):
        return sum(
            1 for pline in batch if self.holders.get(pline, set()) - {cpu}
        )

    def remote_copies(self, batch, cpu):
        copies = {}
        for pline in dict.fromkeys(batch):
            for holder in sorted(self.holders.get(pline, ())):
                if holder != cpu:
                    copies.setdefault(holder, []).append(pline)
        return list(copies.items())


class TestMachineCoherence:
    def test_remote_miss_priced_higher(self, smp):
        t = smp.config.timings
        smp.touch(0, np.arange(10))
        before = smp.cycles(1)
        smp.touch(1, np.arange(10))
        local_cost = 10 * (t.l2_miss + 1)
        remote_cost = 10 * (t.l2_miss_remote + 1)
        assert smp.cycles(1) - before == remote_cost
        assert remote_cost > local_cost

    def test_write_invalidates_remote_copies(self, smp):
        smp.touch(0, np.arange(10))
        smp.touch(1, np.arange(10))
        smp.touch(0, np.arange(10), write=True)
        assert smp.cpus[1].l2.resident_lines().size == 0
        assert smp.cpus[0].l2.resident_lines().size == 10

    def test_write_invalidation_reaches_a_pic(self, smp):
        for cpu in smp.cpus:
            cpu.counters.configure(
                CounterEvent.ECACHE_REFS,
                CounterEvent.ECACHE_INVALIDATIONS,
                privileged=True,
            )
        smp.touch(1, np.arange(10))
        smp.touch(2, np.arange(3))
        smp.touch(0, np.arange(4), write=True)
        smp.touch(0, np.arange(2, 3), write=True)
        for cpu in smp.cpus:
            refs, invalidations = cpu.counters.read()
            assert refs == cpu.l2.stats.refs
            assert invalidations == cpu.l2.stats.invalidations
        assert [cpu.counters.read()[1] for cpu in smp.cpus] == [0, 4, 3, 0]

    def test_write_does_not_invalidate_self(self, smp):
        smp.touch(0, np.arange(10), write=True)
        assert smp.cpus[0].l2.resident_lines().size == 10

    def test_directory_tracks_evictions(self, smp):
        smp.touch(0, np.arange(5))
        plines = smp.vm.translate_lines(np.arange(5))
        assert smp.directory.count_remote(plines, cpu_id=1) == 5
        smp.cpus[0].l2.flush()  # evictions reach the directory
        assert smp.directory.count_remote(plines, cpu_id=1) == 0

    def test_total_l2_misses_sums_cpus(self, smp):
        smp.touch(0, np.arange(5))
        smp.touch(1, np.arange(7) + 1000)
        assert smp.total_l2_misses() == 12

    def test_machine_time_is_max_clock(self, smp):
        smp.compute(2, 5000)
        assert smp.time() == smp.cycles(2)

    def test_flush_all(self, smp):
        smp.touch(0, np.arange(5))
        smp.touch(3, np.arange(5))
        smp.flush_all()
        assert all(c.l2.resident_lines().size == 0 for c in smp.cpus)

    def test_uniprocessor_skips_invalidation_path(self, machine):
        machine.touch(0, np.arange(5), write=True)
        assert machine.cpus[0].l2.resident_lines().size == 5

    def test_snapshot_per_cpu(self, smp):
        snaps = smp.snapshot()
        assert len(snaps) == smp.config.num_cpus
        assert all("misses" in s for s in snaps)

    def test_shared_translation_across_cpus(self, smp):
        """All cpus share one VM: the same virtual line maps to the same
        physical line everywhere (it's one address space)."""
        smp.touch(0, lines(5))
        smp.touch(1, lines(5))
        pline = int(smp.vm.translate_lines(lines(5))[0])
        assert smp.cpus[0].l2.contains(pline)
        assert smp.cpus[1].l2.contains(pline)

    def test_direct_mapped_config_reaches_every_cpu(self):
        machine = Machine(replace(SMALL, num_cpus=2), seed=7)
        for cpu in machine.cpus:
            assert isinstance(cpu.l2, DirectMappedCache)
            assert cpu.l2.num_lines == SMALL.l2_lines

    def test_set_associative_config_reaches_every_cpu(self):
        machine = Machine(replace(SMALL, num_cpus=2, l2_ways=4), seed=7)
        assert all(
            isinstance(cpu.l2, SetAssociativeCache) for cpu in machine.cpus
        )
        assert machine.touch(1, np.arange(8)).misses == 8
        again = machine.touch(1, np.arange(8))
        assert (again.hits, again.misses) == (8, 0)


def _wire_directory(machine):
    """Give a 1-cpu machine the directory probe and listeners an SMP has."""
    directory = LineDirectory(1)
    cpu = machine.cpus[0]
    cpu.set_remote_probe(lambda plines: directory.count_remote(plines, 0))
    cpu.l2.on_install(lambda plines: directory.add(0, plines))
    cpu.l2.on_evict(lambda plines: directory.remove(0, plines))
    return directory


class TestUniprocessorHasNoDirectory:
    def test_no_directory_wiring(self):
        for config in (SMALL, ULTRA1):
            machine = Machine(config, seed=0)
            cpu = machine.cpus[0]
            assert machine.directory is None
            assert cpu._remote_probe is None
            assert cpu.l2._install_listeners == []
            assert cpu.l2._evict_listeners == []

    def test_smp_keeps_its_directory(self, smp):
        assert isinstance(smp.directory, LineDirectory)
        assert all(cpu._remote_probe is not None for cpu in smp.cpus)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 99),
        touches=st.lists(
            st.tuples(
                st.lists(st.integers(0, 1023), min_size=1, max_size=40),
                st.booleans(),
            ),
            min_size=1,
            max_size=25,
        ),
    )
    def test_same_cycles_and_misses_as_with_a_directory(self, seed, touches):
        bare = Machine(SMALL, seed=seed)
        wired = Machine(SMALL, seed=seed)
        directory = _wire_directory(wired)
        for lines, write in touches:
            vlines = np.asarray(lines, dtype=np.int64)
            bare.touch(0, vlines, write=write)
            wired.touch(0, vlines, write=write)
            assert bare.snapshot() == wired.snapshot()
        assert bare.cpus[0].remote_misses == 0
        resident = wired.cpus[0].l2.resident_lines()
        assert directory.count_remote(resident, cpu_id=0) == 0
