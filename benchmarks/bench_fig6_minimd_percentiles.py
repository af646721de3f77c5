"""Figure 6 — MiniMD force-loop percentiles per iteration (two-phase).

Paper shape: the first nineteen iterations show a much wider spread (mean IQR
≈ 0.93 ms, median 25–26 ms) than the remainder of the run (mean IQR
≈ 0.15 ms, median ≈ 24.74 ms), which instead shows sporadic laggards.
"""

import pytest

from repro.experiments.figures import figure6_minimd_percentiles
from repro.experiments.paper import SECTION4_METRICS


def test_figure6_minimd_percentiles(benchmark, bench_results):
    figure = benchmark(figure6_minimd_percentiles, bench_results["minimd"])
    paper = SECTION4_METRICS["minimd"]
    assert figure["warmup_mean_iqr_ms"] > 3 * figure["steady_mean_iqr_ms"]
    assert figure["warmup_mean_iqr_ms"] == pytest.approx(
        paper["warmup_mean_iqr_ms"], rel=0.5
    )
    series = figure["series"]
    steady_median = series.median[figure["warmup_iterations"]:].mean()
    warmup_median = series.median[: figure["warmup_iterations"]].mean()
    assert steady_median == pytest.approx(paper["mean_median_arrival_ms"], rel=0.05)
    assert 25.0 <= warmup_median <= 26.5
