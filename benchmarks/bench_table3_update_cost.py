"""Table 3: priority-update costs in floating-point instructions.

Shape targets: independent threads cost exactly zero (the schemes'
defining trick); blocking and dependent updates cost "just a few"
floating-point instructions each.
"""

from conftest import report

from repro.experiments.table3 import format_table3, run_table3


def test_table3_priority_update_costs():
    results = run_table3()
    report("table3", format_table3(results))

    for policy, costs in results.items():
        assert costs["independent"] == 0.0, policy
        assert 1 <= costs["blocking"] <= 10, policy
        assert 1 <= costs["dependent"] <= 10, policy
    # CRT's blocking update is the cheapest case in the paper
    assert results["crt"]["blocking"] <= results["lff"]["blocking"]
