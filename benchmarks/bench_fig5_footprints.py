"""Figure 5: observed vs predicted footprints for six applications.

Shape targets: C (SPLASH-like) apps mildly overestimated (ratio >= 1);
Sather apps in good agreement (ratio near 1); nothing anomalous (that is
Figure 7's job).
"""

from conftest import report

from repro.experiments.fig5 import format_fig5, run_fig5


def test_fig5_application_footprints():
    results = run_fig5()
    report("fig5", format_fig5(results))

    for name, res in results.items():
        # every app produced a substantial trace
        assert res.misses[-1] > 1000, name
        # no Figure-5 app is wildly mispredicted
        assert 0.6 < res.final_ratio < 1.6, (name, res.final_ratio)

    # the C apps lean toward overestimation (clustering/conflicts)...
    c_ratios = [r.final_ratio for r in results.values() if r.language == "c"]
    assert max(c_ratios) > 1.0
    # ...while the Sather apps agree well on average
    sather = [r.final_ratio for r in results.values() if r.language == "sather"]
    assert sum(sather) / len(sather) < 1.25
