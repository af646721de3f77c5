"""Merged-dataset vs streaming-pass campaign analysis.

Benchmarks the two ways of producing a feasibility report for the same
benchmark-scale MiniFE campaign:

* **merged** — run the campaign, merge the shards into the dense
  ``TimingDataset``, analyse it with ``analyze_dataset``;
* **streaming** — fold the shard stream through the registered analysis
  passes (``CampaignSession.analyze(analyses=...)``), never materialising
  the merged dataset.

Both paths must produce field-for-field identical reports (the
refactor's acceptance criterion), asserted before timing.  The memory the
analyses need out of core is guarded by
``bench_out_of_core.py::test_out_of_core_analyses_memory_guard``.

The columnar sweep (``analysis-columnar`` group) additionally times the
campaign's shards folded as one-slice blocks against the same campaign
folded as one whole column block (both ``run_columnar_analyses``) on a
paper-scale campaign, per pass set, tagging each ``bench.json`` entry
with ``analysis_path``/``analysis_passes``/``samples_per_second`` for the
CI benchmark table; ``test_columnar_analysis_speedup_guard`` is the ≥2x
regression guard on the pure group-fold pass set, and
``test_sorted_order_statistics_cost_guard`` keeps the laggard order
statistics read off one sort of the block within half the cost of
``np.median`` plus ``np.percentile``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import (
    AnalysisContext,
    EarlybirdPass,
    HistogramPass,
    LaggardsPass,
    NormalityPass,
    PercentilesPass,
    ReclaimablePass,
    analyze_dataset,
    run_columnar_analyses,
)
from repro.core.aggregation import canonical_block
from repro.experiments.backends import get_backend
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession
from repro.stats.percentiles import sorted_median, sorted_percentiles

#: the report-producing passes (earlybird excluded to keep both sides equal)
ANALYSES = ("percentiles", "histogram", "laggards", "reclaimable", "normality")

#: guard threshold: one whole column block must fold at least this much
#: faster than the same shards as one-shard blocks on the group-fold pass set
MIN_COLUMNAR_ANALYSIS_SPEEDUP = 2.0

#: guard threshold: the laggard order statistics read off a presorted
#: matrix, the sort included, may cost at most this multiple of
#: ``np.median`` plus ``np.percentile([75, 25])`` on the same matrix
MAX_SORTED_ORDER_STATISTICS_COST_RATIO = 0.5

#: the pass sets of the one-shard-blocks vs columnar sweep.  ``group-fold``
#: is the subset whose per-block cost is pure Python dispatch and
#: canonicalisation — the cost a whole block amortises; ``report`` is the
#: full report set, whose percentile/laggard/normality passes are dominated
#: by order statistics (``np.partition``, the batch normality battery) that
#: both paths compute identically.  ``NormalityPass(application_iteration=False)`` on both
#: sides: the iteration-count finalize is a fixed shared cost that would
#: otherwise blur the fold comparison.
SWEEP_PASSES = {
    "group-fold": lambda: [EarlybirdPass(), ReclaimablePass(), HistogramPass()],
    "report": lambda: [
        PercentilesPass(),
        HistogramPass(),
        LaggardsPass(),
        ReclaimablePass(),
        NormalityPass(application_iteration=False),
    ],
}


def _paper_scale_inputs():
    """Materialized shards (one-slice blocks), the equivalent column block,
    and the context of a paper-scale MiniFE campaign (10 trials x 8
    processes x 200 x 48)."""
    config = CampaignConfig(
        application="minife", trials=10, processes=8, iterations=200,
        threads=48, seed=1, backend="campaign",
    )
    backend = get_backend(config.backend)
    shards = [
        block.rows(sl)
        for block in CampaignSession(config).stream()
        for sl in block.slices
    ]
    parts = [shard.columns for shard in shards]
    columns = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    slices = []
    start = 0
    for shard in shards:
        slices.append(
            shard.slices[0]._replace(start=start, stop=start + shard.n_samples)
        )
        start += shard.n_samples
    context = AnalysisContext.from_config(config, metadata=backend.metadata(config))
    return shards, canonical_block(columns, slices), context


@pytest.fixture(scope="module")
def paper_inputs():
    return _paper_scale_inputs()


def _fold(path: str, inputs, passes) -> None:
    shards, block, context = inputs
    run_columnar_analyses(
        iter(shards if path == "one-shard-blocks" else [block]), passes, context
    )


def _config(trials: int = 2) -> CampaignConfig:
    return CampaignConfig.benchmark_scale(application="minife").scaled(trials=trials)


def _merged_report(config: CampaignConfig):
    dataset = CampaignSession(config).run(use_cache=False).dataset
    return analyze_dataset(dataset, ANALYSES).report(include_earlybird=False)


def _streaming_report(config: CampaignConfig):
    results = CampaignSession(config).analyze(analyses=ANALYSES)
    return results.report(include_earlybird=False)


@pytest.mark.benchmark(group="analysis-streaming")
def test_merged_dataset_analysis(benchmark):
    config = _config()
    report = benchmark(_merged_report, config)
    assert report.n_samples == config.samples_per_application


@pytest.mark.benchmark(group="analysis-streaming")
def test_streaming_pass_analysis(benchmark):
    config = _config()
    # acceptance: the streaming path is field-for-field identical to the
    # merged-dataset path before we time it
    assert _streaming_report(config).as_dict() == _merged_report(config).as_dict()
    report = benchmark(_streaming_report, config)
    assert report.n_samples == config.samples_per_application


@pytest.mark.benchmark(group="analysis-columnar")
@pytest.mark.parametrize("passes", sorted(SWEEP_PASSES))
@pytest.mark.parametrize("path", ["one-shard-blocks", "columnar"])
def test_analysis_fold_throughput(benchmark, paper_inputs, path, passes):
    """One-shard blocks vs one whole block: analysis samples/sec on a
    paper-scale campaign.

    The analysis fold alone (shards and the column block are materialized
    once per module); ``analysis_path``/``analysis_passes`` in
    ``extra_info`` feed the CI benchmark job's per-path table.
    """
    shards, _, _ = paper_inputs
    n_samples = sum(shard.n_samples for shard in shards)
    benchmark(_fold, path, paper_inputs, SWEEP_PASSES[passes]())
    benchmark.extra_info["analysis_path"] = path
    benchmark.extra_info["analysis_passes"] = passes
    if benchmark.stats is not None:  # timing on (not --benchmark-disable)
        best = benchmark.stats.stats.min
        benchmark.extra_info["samples_per_second"] = n_samples / best


def test_columnar_analysis_speedup_guard():
    """Regression guard for block amortisation: on a paper-scale MiniFE
    campaign, folding the whole campaign as one column block must stay
    >= 2x folding its shards as one-slice blocks on the
    ``group-fold`` pass set (earlybird + reclaimable + histogram).  Both
    paths run the same pass kernels; what a whole block saves is the
    per-block canonicalisation and Python dispatch of every pass, so that
    set shows a dispatch regression undiluted (measured ~2.4x).  The
    order-statistic passes (percentiles / laggards / normality) spend most
    of their time in ``np.partition`` and the batch normality battery,
    identical work on both paths, so including them could mask a real
    regression behind shared statistics cost (their per-path numbers are
    still recorded by ``test_analysis_fold_throughput``'s ``report``
    sweep)."""
    inputs = _paper_scale_inputs()

    def best(path: str, repeats: int = 3) -> float:
        _fold(path, inputs, SWEEP_PASSES["group-fold"]())  # warm-up
        elapsed = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            _fold(path, inputs, SWEEP_PASSES["group-fold"]())
            elapsed = min(elapsed, time.perf_counter() - start)
        return elapsed

    one_shard, columnar = best("one-shard-blocks"), best("columnar")
    speedup = one_shard / columnar
    assert speedup >= MIN_COLUMNAR_ANALYSIS_SPEEDUP, (
        f"whole-block analysis fold is only {speedup:.1f}x the one-shard-block "
        f"fold ({one_shard:.3f}s vs {columnar:.3f}s on the group-fold pass "
        f"set); block amortisation has regressed below the "
        f"{MIN_COLUMNAR_ANALYSIS_SPEEDUP}x guard"
    )


def test_sorted_order_statistics_cost_guard():
    """Regression guard for the shared block sort: on the paper-scale
    MiniFE process-iteration matrix (16 000 groups x 48 threads), the
    laggards pass's median and quartiles read off ``np.sort`` of the
    matrix (:func:`sorted_median`, :func:`sorted_percentiles`, the sort
    included) must cost at most 0.5x ``np.median`` plus
    ``np.percentile([75, 25])`` of the unsorted matrix, and equal them
    bit for bit.  Sorting 48-element rows is cheap next to numpy's
    per-row partition and its bookkeeping (measured ~0.1x)."""
    _, block, _ = _paper_scale_inputs()
    cube = block.cube
    matrix = cube.reshape(-1, cube.shape[-1])
    assert matrix.shape == (16000, 48)

    def partitioned():
        return np.median(matrix, axis=-1), np.percentile(matrix, [75.0, 25.0], axis=-1)

    def presorted():
        ordered = np.sort(matrix, axis=-1)
        return sorted_median(ordered), sorted_percentiles(ordered, [75.0, 25.0])

    for ours, theirs in zip(presorted(), partitioned()):
        np.testing.assert_array_equal(ours.view(np.int64), theirs.view(np.int64))

    def best(fn, repeats: int = 7) -> float:
        fn()  # warm-up
        elapsed = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            elapsed = min(elapsed, time.perf_counter() - start)
        return elapsed

    old, new = best(partitioned), best(presorted)
    ratio = new / old
    assert ratio <= MAX_SORTED_ORDER_STATISTICS_COST_RATIO, (
        f"order statistics off one sort cost {ratio:.2f}x np.median + "
        f"np.percentile ({new * 1e3:.1f} ms vs {old * 1e3:.1f} ms on 16000x48); "
        f"above the {MAX_SORTED_ORDER_STATISTICS_COST_RATIO}x guard"
    )
