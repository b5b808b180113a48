"""Extension bench: runtime sharing inference (paper section 7).

"It is even more attractive to identify state sharing patterns entirely
at runtime ... perhaps with the use of a related hardware device combined
with the VM techniques, some sharing patterns could be inferred without
user intervention."

Shape targets on the producer/consumer workload (where write invalidation
blinds the counters-only model, section 3.4):

- user annotations deliver a large win over counters-only LFF;
- CML-based inference, with zero annotations, recovers a substantial
  fraction of that win.
"""

from conftest import report

from repro.experiments.inference_exp import (
    format_inference_comparison,
    run_inference_comparison,
)


def test_sharing_inference():
    results = run_inference_comparison()
    report("ablation_inference", format_inference_comparison(results))

    base = results["fcfs"]["misses"]
    counters_only = 1 - results["lff"]["misses"] / base
    annotated = 1 - results["lff+annotations"]["misses"] / base
    inferred = 1 - results["lff+inference"]["misses"] / base

    # annotations are the big lever on this workload
    assert annotated > 0.7
    assert annotated > counters_only + 0.3
    # inference closes a substantial part of the gap, without annotations
    assert inferred > counters_only + 0.15
    assert results["lff+inference"]["edges"] > 0
