"""Figure 5 — MiniFE process-iteration distribution classes (50 µs bins).

Paper shape: 77.6 % of process-iterations contain no laggard thread (Fig. 5a)
and 22.4 % contain one (Fig. 5b), using the 1 ms-over-median threshold; both
classes share a very tight main mode near 26.3 ms.
"""

import pytest

from repro.experiments.figures import figure5_minife_classes
from repro.experiments.paper import SECTION4_METRICS


def test_figure5_minife_classes(benchmark, bench_results, bench_runs):
    figure = benchmark(
        figure5_minife_classes, bench_results["minife"], shards=bench_runs["minife"]
    )
    paper_fraction = SECTION4_METRICS["minife"]["laggard_fraction"]
    measured = figure["laggard_fraction"]
    # generous band around the paper's 22.4 %: the claim is "roughly a fifth
    # of iterations", not an exact percentage
    assert 0.5 * paper_fraction <= measured <= 2.0 * paper_fraction
    assert figure["no_laggard_fraction"] == pytest.approx(1.0 - measured)

    no_laggard = figure["no_laggard_histogram"]
    laggard = figure["laggard_histogram"]
    assert no_laggard is not None and laggard is not None
    assert no_laggard.bin_width == pytest.approx(50.0e-6)
    # the laggard exemplar's occupied range extends beyond the threshold,
    # the clean exemplar's does not
    assert laggard.spread() > 1.0e-3
    assert no_laggard.spread() < laggard.spread()
