"""Ablation: LFF without user annotations (paper section 5).

Shape targets: merge's gains are "almost entirely through user
annotations" (retention well below 1); photo retains part of its gain
from the counter-driven model alone (the paper: 41% of the eliminated
misses); tsp barely changes ("adding annotations does not improve
performance much further").
"""

from conftest import report

from repro.experiments.ablations import (
    format_annotation_ablation,
    run_annotation_ablation,
)


def test_annotation_ablation():
    rows = run_annotation_ablation()
    report("ablation_annotations", format_annotation_ablation(rows))

    # annotations matter for the sharing-heavy workloads
    assert rows["photo"]["elim_with"] > 0
    assert rows["photo"]["elim_retained"] < 0.6
    assert rows["merge"]["elim_with"] > rows["merge"]["elim_without"]
    # tsp's gain is substantially counter-driven: retention stays sizeable
    assert rows["tsp"]["elim_retained"] > 0.3
