"""Table 1: the simulated UltraSPARC-1 memory hierarchy.

Asserts and prints the exact configuration every other bench runs on, so
the reproduction's platform parameters are part of the recorded output.
"""

from conftest import report

from repro.machine.configs import E5000_8CPU, ULTRA1
from repro.sim.report import format_table


def build_rows():
    rows = []
    for config in (ULTRA1, E5000_8CPU):
        rows.append(
            (
                config.name,
                config.num_cpus,
                f"{config.l1i_bytes // 1024}K/{config.l1d_bytes // 1024}K",
                f"{config.l2_bytes // 1024}K x{config.l2_ways}",
                config.line_bytes,
                config.timings.l2_hit,
                config.timings.l2_miss,
                config.timings.l2_miss_remote,
            )
        )
    return rows


def test_table1_configuration():
    rows = build_rows()
    text = format_table(
        [
            "platform",
            "cpus",
            "L1 I/D",
            "E-cache",
            "line B",
            "hit cyc",
            "miss cyc",
            "remote cyc",
        ],
        rows,
        title="Table 1: simulated memory hierarchies",
    )
    report("table1", text)
    # the Table 1 numbers themselves
    assert ULTRA1.l2_bytes == 512 * 1024
    assert ULTRA1.line_bytes == 64
    assert ULTRA1.timings.l2_hit == 3
    assert ULTRA1.timings.l2_miss == 42
    assert E5000_8CPU.timings.l2_miss == 50
    assert E5000_8CPU.timings.l2_miss_remote == 80
