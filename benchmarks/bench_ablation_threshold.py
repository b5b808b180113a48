"""Ablation: the heap eviction threshold (paper section 5).

"Threads whose footprints drop below a certain threshold on some heap are
removed from that heap to bound heap sizes and keep the cost of elementary
heap operations low."  Shape target: small thresholds preserve the
locality win; a threshold comparable to typical footprints destroys it
(nothing qualifies for the heaps and scheduling degenerates to FIFO).
"""

from conftest import report

from repro.experiments.ablations import (
    format_threshold_ablation,
    run_threshold_ablation,
)


def test_threshold_ablation():
    results = run_threshold_ablation()
    report("ablation_threshold", format_threshold_ablation(results))

    small = results[0.0]["misses"]
    moderate = results[32.0]["misses"]
    huge = results[256.0]["misses"]
    assert moderate < 2 * small  # moderate thresholds are near-free
    assert huge > 5 * moderate  # over-eviction destroys affinity
