"""Figure 6: average E-cache misses per 1000 instructions over time.

Shape target: "unblocking threads usually experience bursts of reload
transient misses followed by a period of a relatively stable number of
misses" -- early-window MPI must exceed the late steady state for the
reload-transient apps.
"""

from conftest import report

from repro.experiments.fig6 import format_fig6, run_fig6, transient_ratio


def test_fig6_mpi_series():
    series = run_fig6()
    report("fig6", format_fig6(series))

    ratios = {
        name: transient_ratio(instr, mpi)
        for name, (instr, mpi) in series.items()
        if mpi.size
    }
    # a clear reload burst exists for most apps
    bursty = [name for name, ratio in ratios.items() if ratio > 1.2]
    assert len(bursty) >= 3, ratios
