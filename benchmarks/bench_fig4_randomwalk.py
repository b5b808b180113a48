"""Figure 4: the random-memory-walk microbenchmark, all four panels.

Shape target: "excellent correspondence between the observed footprints
and those predicted by the model" -- the walk satisfies the independence
assumption by construction, so mean relative error must be small in every
panel.
"""

from conftest import report

from repro.experiments.fig4 import run_fig4
from repro.sim.report import format_series, format_table


def test_fig4_random_walk():
    panels = run_fig4()
    rows = []
    details = []
    for panel, curves in panels.items():
        for curve in curves:
            rows.append(
                (
                    panel,
                    curve.label,
                    int(curve.misses[-1]),
                    int(curve.observed[-1]),
                    float(curve.predicted[-1]),
                    100.0 * curve.mean_relative_error,
                )
            )
            details.append(
                f"{panel} {curve.label}: "
                + format_series(curve.misses, curve.observed, max_points=6)
            )
    text = format_table(
        ["panel", "curve", "misses", "observed", "predicted", "rel.err %"],
        rows,
        title="Figure 4: random walk, observed vs predicted footprints",
    )
    report("fig4", text + "\n" + "\n".join(details))

    # every curve tracks the model closely
    for panel, curves in panels.items():
        for curve in curves:
            assert curve.mean_relative_error < 0.08, (panel, curve.label)

    # panel b decays; panel a grows
    for curve in panels["b_independent"]:
        assert curve.observed[-1] < curve.observed[0]
    grow = panels["a_executing"][0]
    assert grow.observed[-1] > grow.observed[0]
