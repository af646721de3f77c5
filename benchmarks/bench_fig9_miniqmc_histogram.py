"""Figure 9 — a representative MiniQMC process-iteration histogram (1 ms bins).

Paper shape: the breadth of over 40 ms seen in the aggregated percentile plot
is already present within a single process-iteration — the spread is not an
artefact of pooling the 80 process-trial pairs.
"""

import pytest

from repro.experiments.figures import figure9_miniqmc_histogram


def test_figure9_miniqmc_histogram(benchmark, bench_results, bench_runs):
    figure = benchmark(
        figure9_miniqmc_histogram, bench_results["miniqmc"], shards=bench_runs["miniqmc"]
    )
    histogram = figure["histogram"]
    assert histogram.bin_width == pytest.approx(1.0e-3)
    assert histogram.total == bench_runs["miniqmc"].config.threads
    # a single team's movers already span tens of milliseconds
    assert figure["spread_ms"] > 20.0


def test_single_iteration_spread_accounts_for_aggregate(bench_results):
    """The §4.2.3 question: is the wide Figure-8 band caused by per-iteration
    spread or by aggregation across processes/trials?  Per-iteration."""
    results = bench_results["miniqmc"]
    per_group_iqr = results["laggards"].analysis.iqr_s
    aggregate_iqr = results["percentiles"].iqr.mean() * 1e-3
    assert per_group_iqr.mean() > 0.6 * aggregate_iqr
