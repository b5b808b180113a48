"""Figure 8: locality scheduling on the 1-cpu Ultra-1.

Shape targets (paper Figure 8 / Table 5 1-cpu column):

- tasks: both policies eliminate the vast majority of E-misses and run
  about twice as fast;
- merge: substantial, annotation-driven gains;
- photo: FCFS order is already near-optimal -- the locality policies gain
  essentially nothing (paper: about -1% misses, 0.97x);
- tsp: only a small fraction of misses is eliminable (compulsory
  initialisation misses dominate).
"""

from conftest import report

from repro.experiments.fig8 import format_fig8, run_fig8


def test_fig8_uniprocessor():
    results = run_fig8()
    report("fig8", format_fig8(results))

    for policy in ("lff", "crt"):
        base = {wl: res["fcfs"] for wl, res in results.items()}

        tasks = results["tasks"][policy]
        assert tasks.misses_eliminated_vs(base["tasks"]) > 0.80
        assert tasks.speedup_vs(base["tasks"]) > 1.8

        merge = results["merge"][policy]
        assert merge.misses_eliminated_vs(base["merge"]) > 0.15
        assert merge.speedup_vs(base["merge"]) > 1.05

        # photo: FCFS order is already cache-friendly; whatever misses the
        # locality policies save, their heavier machinery eats the gain
        # (the paper's 0.97x)
        photo = results["photo"][policy]
        assert -0.10 < photo.misses_eliminated_vs(base["photo"]) < 0.35
        assert 0.85 < photo.speedup_vs(base["photo"]) < 1.05

        tsp = results["tsp"][policy]
        assert 0.0 < tsp.misses_eliminated_vs(base["tsp"]) < 0.30
