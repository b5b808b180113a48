"""Extension bench: the locality/fairness trade-off (paper section 7).

Shape targets: LFF's pure priority order starves cold threads (maximum
wait far above FCFS's); the fairness-boost escape hatch bounds waits at a
measurable locality cost, with smaller boost intervals trading more.
"""

from conftest import report

from repro.experiments.fairness import (
    format_fairness_sweep,
    run_fairness_sweep,
)


def test_fairness_tradeoff():
    results = run_fairness_sweep()
    report("fairness", format_fairness_sweep(results))

    # LFF starves relative to FCFS...
    assert results["lff"]["max_wait"] > 2 * results["fcfs"]["max_wait"]
    # ...while eliminating most misses
    assert results["lff"]["misses"] < 0.3 * results["fcfs"]["misses"]
    # the escape hatch reduces the worst wait...
    assert results["lff boost=4"]["max_wait"] < results["lff"]["max_wait"]
    # ...at a locality cost (more misses than pure LFF)
    assert results["lff boost=4"]["misses"] >= results["lff"]["misses"]