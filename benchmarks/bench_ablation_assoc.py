"""Ablation: model accuracy vs E-cache associativity.

The model is derived for direct-mapped caches (section 2.1; the paper
notes extending it to associative caches would be "more complex with a
higher runtime overhead").  Shape target: prediction error grows with
associativity while staying small for the direct-mapped case.
"""

import pytest

from conftest import report

from repro.experiments.ablations import (
    format_associativity_ablation,
    run_associativity_ablation,
)


def test_associativity_ablation():
    results = run_associativity_ablation()
    report("ablation_assoc", format_associativity_ablation(results))

    assert results[1]["mae"] < results[2]["mae"] < results[4]["mae"]
    assert results[1]["mae"] < 300  # direct-mapped: the model's home turf

    # the W-way extension restores decay accuracy on associative caches
    for w in (2, 4):
        assert (
            results[w]["decay_mae_extension"] < results[w]["decay_mae_direct"]
        )
    # ...and reduces to the paper's model at W = 1 (up to the numerical
    # difference between the binomial-CDF and exp-log evaluations of k^n)
    assert results[1]["decay_mae_extension"] == pytest.approx(
        results[1]["decay_mae_direct"], rel=1e-6, abs=1e-6
    )
