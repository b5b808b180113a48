"""Tests for the Table 1 machine configurations."""

from dataclasses import replace

import pytest

from repro.machine.configs import (
    E5000_8CPU,
    SMALL,
    ULTRA1,
    MachineConfig,
    MemoryTimings,
)


class TestTable1Values:
    def test_ultra1_matches_table1(self):
        assert ULTRA1.l2_bytes == 512 * 1024
        assert ULTRA1.line_bytes == 64
        assert ULTRA1.l1i_bytes == 16 * 1024
        assert ULTRA1.l1d_bytes == 16 * 1024
        assert ULTRA1.timings.l2_hit == 3
        assert ULTRA1.timings.l2_miss == 42
        assert ULTRA1.num_cpus == 1
        assert ULTRA1.clock_mhz == 167

    def test_e5000_remote_pricing(self):
        assert E5000_8CPU.num_cpus == 8
        assert E5000_8CPU.timings.l2_miss == 50
        assert E5000_8CPU.timings.l2_miss_remote == 80

    def test_l2_lines(self):
        assert ULTRA1.l2_lines == 8192
        assert SMALL.l2_lines == 256

    def test_context_switch_cost_order_100(self):
        assert ULTRA1.context_switch_instructions == 100


class TestValidation:
    def test_zero_cpus_rejected(self):
        with pytest.raises(ValueError):
            replace(ULTRA1, num_cpus=0)

    def test_non_line_multiple_l2_rejected(self):
        with pytest.raises(ValueError):
            replace(ULTRA1, l2_bytes=100)

    def test_non_page_multiple_l2_rejected(self):
        with pytest.raises(ValueError):
            replace(ULTRA1, l2_bytes=64 * 100)

    @pytest.mark.parametrize("ways", [0, -4])
    def test_non_positive_associativity_rejected(self, ways):
        # not silently built as a direct-mapped cache
        with pytest.raises(ValueError, match="associativity"):
            replace(SMALL, l2_ways=ways)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            MemoryTimings(l2_miss=0)

    def test_with_cpus(self):
        quad = ULTRA1.with_cpus(4)
        assert quad.num_cpus == 4
        assert quad.l2_bytes == ULTRA1.l2_bytes
        assert "x4" in quad.name
