"""Figure 4 — MiniFE mat-vec arrival percentiles per application iteration.

Paper shape: mean median ≈ 26.30 ms; the inter-quartile range is tiny
(mean ≈ 0.18 ms) while the 5th/25th percentiles sit further below the median
than the 75th/95th sit above it (early arrivals are more common than late
ones, attributed to the work-distribution imbalance of 200 planes over 48
threads).
"""

import pytest

from repro.experiments.figures import figure4_minife_percentiles
from repro.experiments.paper import SECTION4_METRICS


def test_figure4_minife_percentiles(benchmark, bench_results):
    figure = benchmark(figure4_minife_percentiles, bench_results["minife"])
    paper = SECTION4_METRICS["minife"]
    assert figure["mean_median_ms"] == pytest.approx(
        paper["mean_median_arrival_ms"], rel=0.05
    )
    assert figure["mean_iqr_ms"] < 0.5
    assert figure["skew_direction"] == "early"
    series = figure["series"]
    # the trajectory is flat: no drift of the median across 200 iterations
    assert series.median.max() - series.median.min() < 2.0
