"""Figure 8 — MiniQMC mover percentiles per iteration.

Paper shape: the most uniform behaviour across iterations of the three
applications, with the largest within-iteration spread: mean IQR ≈ 9.05 ms,
maximum IQR ≈ 15.61 ms, mean median ≈ 60.91 ms.
"""

import pytest

from repro.experiments.figures import figure8_miniqmc_percentiles
from repro.experiments.paper import SECTION4_METRICS


def test_figure8_miniqmc_percentiles(benchmark, bench_results):
    figure = benchmark(figure8_miniqmc_percentiles, bench_results["miniqmc"])
    paper = SECTION4_METRICS["miniqmc"]
    assert figure["mean_median_ms"] == pytest.approx(
        paper["mean_median_arrival_ms"], rel=0.05
    )
    assert figure["mean_iqr_ms"] == pytest.approx(paper["mean_iqr_ms"], rel=0.35)
    assert figure["max_iqr_ms"] > figure["mean_iqr_ms"]
    series = figure["series"]
    # little variation across iterations: the median trajectory drifts far
    # less than the within-iteration spread
    assert (series.median.max() - series.median.min()) < figure["mean_iqr_ms"]
