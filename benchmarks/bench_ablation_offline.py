"""Methodology bench: off-line trace inference vs the on-line model.

The paper replaces trace-driven footprint inference (Agarwal et al.,
section 2.1) with a counter-driven closed form.  Shape targets: the
off-line replay is at least as accurate (it stores everything), but its
storage grows with the run while the model's tables are a fixed few
hundred KiB -- the trade the paper's design makes explicit.
"""

from conftest import report

from repro.experiments.offline import (
    format_offline_comparison,
    run_offline_comparison,
)


def test_offline_vs_online():
    results = run_offline_comparison()
    report("ablation_offline", format_offline_comparison(results))

    for name, r in results.items():
        # the on-line model is usable everywhere...
        assert r["online_mae"] < 2000, name
        # ...and the off-line method pays storage proportional to the run
        assert r["trace_bytes"] > r["model_bytes"], name

    # where references are scattered (merge), the stored trace replays to
    # near-exact footprints -- accuracy the model cannot match...
    assert results["merge"]["offline_mae"] < results["merge"]["online_mae"]
    # ...but the trace records *virtual* lines, so on layouts where VM
    # placement matters (barnes' arena slabs) the replay aliases pages the
    # physical cache separates and the on-line model wins outright
    assert results["barnes"]["offline_mae"] > results["barnes"]["online_mae"]
