"""Serial-vs-parallel golden tests.

The determinism contract of :mod:`repro.parallel` is that ``jobs > 1``
produces **bit-identical** output to ``jobs=1`` at every fan-out site.
These tests run each site both ways on small inputs and compare the
merged results exactly -- the campaign via its row fields and formatted
table (the rows embed :func:`~repro.sim.driver.workload_signature`
verdicts, so "identical rows" means "identical signatures"), the model
checker via its result/diagnostic dataclasses, the offline experiment
via its metrics dict.  A warm result cache must answer a whole
campaign without executing a cell, and still print the serial table.
"""

from repro.analysis.mc.explorer import SMALL_BUDGET, explore_all
from repro.experiments.offline import run_offline_comparison
from repro.faults import campaign_shards, format_campaign, run_campaign
from repro.parallel import ResultCache


def _row_fields(row):
    """Everything reported about a cell except the embedded result
    object (process-local, deliberately excluded from the contract)."""
    return (
        row.workload,
        row.policy,
        row.fault_class,
        row.outcome,
        row.ok,
        row.slowdown,
        row.attempts,
        row.detail,
    )


class TestCampaignGolden:
    def test_jobs4_campaign_is_bit_identical_to_serial(self):
        kwargs = dict(
            scale="smoke",
            workload_names=("randomwalk",),
            policies=("fcfs", "lff"),
            fault_classes=["annotation_chaos", "counter_wrap"],
        )
        serial = run_campaign(jobs=1, **kwargs)
        pooled = run_campaign(jobs=4, **kwargs)
        assert [_row_fields(r) for r in pooled] == [
            _row_fields(r) for r in serial
        ]
        assert format_campaign(pooled) == format_campaign(serial)
        assert all(r.ok for r in serial)

    def test_warm_cache_rerun_executes_zero_cells(self, tmp_path):
        kwargs = dict(
            scale="smoke",
            workload_names=("randomwalk", "tasks"),
            policies=("fcfs",),
            fault_classes=["annotation_chaos", "counter_wrap"],
        )
        shards = len(campaign_shards(**kwargs))
        serial = run_campaign(jobs=1, **kwargs)
        cold_cache = ResultCache(str(tmp_path))
        cold = run_campaign(jobs=2, cache=cold_cache, **kwargs)
        assert (cold_cache.misses, cold_cache.stores) == (shards, shards)
        warm_cache = ResultCache(str(tmp_path))
        warm = run_campaign(jobs=2, cache=warm_cache, **kwargs)
        assert warm_cache.hits == shards
        assert warm_cache.misses == 0
        assert format_campaign(cold) == format_campaign(serial)
        assert format_campaign(warm) == format_campaign(serial)


class TestModelCheckerGolden:
    def test_jobs2_exploration_is_bit_identical_to_serial(self):
        serial_results, serial_diags = explore_all(SMALL_BUDGET, jobs=1)
        pooled_results, pooled_diags = explore_all(SMALL_BUDGET, jobs=2)
        assert pooled_results == serial_results
        assert pooled_diags == serial_diags


class TestOfflineGolden:
    def test_jobs2_offline_experiment_is_bit_identical_to_serial(self):
        serial = run_offline_comparison(apps=("merge", "barnes"), jobs=1)
        pooled = run_offline_comparison(apps=("merge", "barnes"), jobs=2)
        assert pooled == serial
        assert list(pooled) == ["merge", "barnes"]
