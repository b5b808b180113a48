"""Ablation: photo thread creation order (the SMP banding mechanism).

With row-order creation (the default, matching the paper's layout) the
8 cpus consume neighbouring rows in lockstep and no placement policy can
do better or worse -- the uniprocessor FCFS-is-already-optimal result.
With tiled creation, neighbour rows remain queued when a row finishes, so
the annotation-driven dependent-repush machinery clusters bands of rows
per cpu -- the paper-scale SMP gain.  Together the two rows localise this
reproduction's photo-SMP deviation to workload structure, not to the
scheduler (see EXPERIMENTS.md).
"""

from conftest import report

from repro.experiments.ablations import (
    format_photo_order_ablation,
    run_photo_order_ablation,
)


def test_photo_creation_order_ablation():
    results = run_photo_order_ablation()
    report("ablation_photo_order", format_photo_order_ablation(results))

    # row order: the policies cannot beat FCFS anywhere meaningful
    assert abs(results[("ultra1", "row")]["eliminated"]) < 35.0
    # tiled order: the banding mechanism delivers a large SMP gain
    assert results[("e5000", "tiled")]["eliminated"] > 30.0
    assert results[("e5000", "tiled")]["speedup"] > 1.3
