"""Figure 3 — application-level thread-arrival histograms (10 µs bins).

Paper shape: each application's histogram has a dominant peak at its mean
median arrival time (≈ 26.3 ms for MiniFE, ≈ 24.7 ms for MiniMD, ≈ 60.9 ms
for MiniQMC); MiniQMC's histogram is far broader than the other two.
"""

import pytest

from repro.experiments.figures import figure3_histogram
from repro.experiments.paper import SECTION4_METRICS


@pytest.mark.parametrize("application", ["minife", "minimd", "miniqmc"])
def test_figure3_histogram(benchmark, bench_results, bench_runs, application):
    figure = benchmark(figure3_histogram, bench_results[application])
    histogram = figure["histogram"]
    assert histogram.bin_width == pytest.approx(10.0e-6)
    assert histogram.total == bench_runs[application].n_samples
    expected_peak_ms = SECTION4_METRICS[application]["mean_median_arrival_ms"]
    assert figure["peak_ms"] == pytest.approx(expected_peak_ms, rel=0.15)


def test_figure3_miniqmc_is_broadest(bench_results):
    spreads = {
        name: figure3_histogram(results)["histogram"].spread()
        for name, results in bench_results.items()
    }
    assert spreads["miniqmc"] > 3 * spreads["minife"]
    assert spreads["miniqmc"] > 3 * spreads["minimd"]
