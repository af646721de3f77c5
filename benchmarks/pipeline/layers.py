"""The program's layers as the pipeline benchmark sees them.

:data:`TARGETS` names, per layer, the public functions the traced pass wraps
(see :mod:`spans`); :func:`layer_seconds` and :func:`derived` turn the
resulting self times into the per-layer metrics.  Span names are
``<layer>`` or ``<layer>.<part>``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from spans import Target

PASSES = {
    "percentiles": "PercentilesPass",
    "histogram": "HistogramPass",
    "normality": "NormalityPass",
    "laggards": "LaggardsPass",
    "reclaimable": "ReclaimablePass",
    "earlybird": "EarlybirdPass",
}
PASS_STAGES = ("accumulate", "merge", "finalize")


def _assembled(result, args, kwargs) -> Dict[str, float]:
    return {"samples": float(kwargs["compute_times_s"].size), "chunks": 1.0}


def _cache_lookup(result, args, kwargs) -> Dict[str, float]:
    return {"hits": 1.0} if result is not None else {"misses": 1.0}


def _targets() -> List[Target]:
    backends = "repro.experiments.backends:"
    apps = "repro.apps.base:ProxyApplication."
    targets = [
        # sample: the campaign backend's serial paths, the app hooks, the
        # schedule fold, the noise model and the columnar assembly
        Target("sample", backends + "CampaignBackend.metadata"),
        Target("sample", backends + "CampaignTensorBackend.iter_shards"),
        Target("sample", backends + "CampaignTensorBackend.run"),
        Target("sample", backends + "CampaignTensorBackend.run_many"),
        Target("sample", apps + "thread_compute_times_campaign"),
        Target("sample.draws", apps + "begin_campaign"),
        Target("sample.draws", apps + "item_costs_campaign"),
        Target("sample.draws", apps + "base_thread_times_campaign"),
        Target("sample.draws", apps + "application_delays_campaign"),
        Target("sample.draws", apps + "finalize_campaign_times"),
        Target("sample.fold", "repro.openmp.schedule:LoopSchedule.simulate_campaign"),
        Target("sample.noise", "repro.cluster.noise:OSNoiseModel.batch_delays"),
        Target(
            "sample.assemble",
            "repro.core.instrument:RegionInstrumenter.record_campaign",
            _assembled,
        ),
        Target("sample.assemble", "repro.core.instrument:RegionInstrumenter.record_columns"),
        Target("sample.assemble", "repro.core.timing:TimingDataset.merge"),
        # executor: the shard executor and the campaign backend's chunk pool
        Target("executor", "repro.experiments.executor:ShardExecutor.run"),
        Target("executor", "repro.experiments.executor:ShardExecutor.run_to_store"),
        Target("executor", "repro.experiments.executor:ShardExecutor.map_blocks"),
        Target("executor", "repro.experiments.executor:ShardExecutor.iter_shards"),
        Target("executor", backends + "CampaignTensorBackend.iter_shards_parallel"),
        Target("executor", backends + "CampaignTensorBackend.map_chunk_blocks"),
        # store
        Target("store.write", "repro.io.shard_store:ShardStore.append"),
        Target("store.write", "repro.io.shard_store:ShardStore.flush"),
        Target("store.write", "repro.io.shard_store:ShardStore.finalize"),
        Target("store.write", "repro.io.shard_store:ShardStore.adopt_group"),
        Target("store.write", "repro.io.shard_store:write_group_payload"),
        Target("store.write", "repro.io.shard_store:publish_store"),
        Target("store.read", "repro.io.shard_store:ShardStore.iter_column_blocks"),
        Target("store.read", "repro.io.shard_store:ShardStore.iter_shards"),
        Target("store.read", "repro.io.shard_store:ShardStore.iter_group"),
        # analysis: the engine and every built-in pass
        Target("analysis", "repro.analysis.engine:run_columnar_analyses"),
        Target("analysis", "repro.analysis.engine:run_campaign_analyses"),
        Target("analysis", "repro.analysis.engine:AnalysisResults.report"),
    ]
    for name, cls in PASSES.items():
        prefix = f"repro.analysis.passes:{cls}."
        targets += [
            Target(f"analysis.{name}.accumulate", prefix + "accumulate_columns_split"),
            Target(f"analysis.{name}.accumulate", prefix + "accumulate"),
            Target(f"analysis.{name}.merge", prefix + "merge"),
            Target(f"analysis.{name}.finalize", prefix + "finalize"),
        ]
    tables = "repro.experiments.tables:"
    figures = "repro.experiments.figures:"
    targets += [
        # output: tables, figures, the ASCII report and the CSV writers
        Target("output.tables", tables + "table1"),
        Target("output.tables", tables + "section4_metrics_table"),
        Target("output.tables", tables + "section41_normality_table"),
        Target("output.tables", tables + "minimd_phase_table"),
        Target("output.tables", "repro.viz.ascii:ascii_table"),
        Target("output.figures", figures + "figure3_histogram"),
        Target("output.figures", figures + "percentile_figure"),
        Target("output.figures", figures + "figure5_minife_classes"),
        Target("output.figures", figures + "figure7_minimd_classes"),
        Target("output.figures", figures + "figure9_miniqmc_histogram"),
        Target("output.figures", "repro.viz.ascii:ascii_histogram"),
        Target("output.figures", "repro.viz.ascii:ascii_percentile_plot"),
        Target("output.export", "repro.viz.export:export_histogram_csv"),
        Target("output.export", "repro.viz.export:export_percentiles_csv"),
        Target("output.export", "repro.viz.export:export_rows_csv"),
        # service (server side)
        Target("service.analyses", "repro.service.api:CampaignService.job_analyses"),
        Target("service.payload", "repro.analysis.engine:AnalysisResults.as_payload"),
        # cache
        Target("cache.write", "repro.io.dataset_io:save_dataset"),
        Target("cache.write", "repro.io.cache_tier:CacheTier.admit"),
        Target("cache.read", "repro.io.dataset_io:try_load_dataset", _cache_lookup),
        Target("cache.read", "repro.io.cache_tier:CacheTier.touch"),
    ]
    return targets


TARGETS = _targets()


def layer_seconds(times: Mapping[str, float]) -> Dict[str, float]:
    """Per-layer self times (seconds) from per-span-name self times."""

    def t(name: str) -> float:
        return times.get(name, 0.0)

    out = {
        "sample.self_s": t("sample"),
        "sample.draws_s": t("sample.draws"),
        "sample.fold_s": t("sample.fold"),
        "sample.noise_s": t("sample.noise"),
        "sample.assemble_s": t("sample.assemble"),
        "executor.self_s": t("executor"),
        "store.write_s": t("store.write"),
        "store.read_s": t("store.read"),
        "analysis.self_s": t("analysis"),
    }
    for name in PASSES:
        for stage in PASS_STAGES:
            out[f"analysis.{name}.{stage}_s"] = t(f"analysis.{name}.{stage}")
    out.update(
        {
            "output.tables_s": t("output.tables"),
            "output.figures_s": t("output.figures"),
            "output.export_s": t("output.export"),
            "service.analyses_s": t("service.analyses"),
            "service.payload_s": t("service.payload"),
            "cache.write_s": t("cache.write"),
            "cache.read_s": t("cache.read"),
        }
    )
    return out


#: the per-layer seconds that make up each layer's share of a unit of work
#: (``service.analyses_s`` spans the analysis layer's work in another
#: thread, so the service layer's own part is queueing, HTTP and payload)
LAYER_PARTS = {
    "sample": [
        "sample.self_s", "sample.draws_s", "sample.fold_s", "sample.noise_s", "sample.assemble_s",
    ],
    "executor": ["executor.self_s"],
    "store": ["store.write_s", "store.read_s"],
    "analysis": ["analysis.self_s"]
    + [f"analysis.{name}.{stage}_s" for name in PASSES for stage in PASS_STAGES],
    "output": ["output.tables_s", "output.figures_s", "output.export_s"],
    "service": ["service.queue_wait_s", "service.http_s", "service.payload_s"],
    "cache": ["cache.write_s", "cache.read_s"],
}


def derived(metrics: Mapping[str, float], unit_s: float) -> Dict[str, float]:
    """Stage sums over the passes, layer shares of ``unit_s`` and coverage."""
    out = {}
    for stage in PASS_STAGES:
        out[f"analysis.{stage}_s"] = sum(
            metrics[f"analysis.{name}.{stage}_s"] for name in PASSES
        )
    coverage = 0.0
    for layer, parts in LAYER_PARTS.items():
        share = sum(metrics.get(part, 0.0) for part in parts) / unit_s
        out[f"{layer}.share"] = share
        coverage += share
    out["trace.coverage_frac"] = coverage
    lookups = metrics.get("cache.hits", 0.0) + metrics.get("cache.misses", 0.0)
    out["cache.hit_ratio"] = metrics.get("cache.hits", 0.0) / lookups if lookups else 0.0
    return out
