"""Ablation: Kessler-Hill hierarchical page placement vs naive placement.

The paper implements the hierarchical policy because it "was shown to
perform better than a naive (arbitrary) page placement" (section 3.1).
Shape target: fewer E-cache misses under Kessler-Hill for a sub-cache
working set with revisits, where placement decides whether pages conflict
at all.
"""

from conftest import report

from repro.experiments.ablations import format_vm_ablation, run_vm_ablation


def test_vm_placement_ablation():
    results = run_vm_ablation()
    report("ablation_vm", format_vm_ablation(results))

    assert results["kessler-hill"] < results["naive"]
