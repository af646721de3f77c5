"""Figure 7 — MiniMD distribution classes: initial / no-laggard / laggard.

Paper shape: the initial (first 19 iterations) histograms are wide with a
range just over 2 ms (Fig. 7a); afterwards 95.2 % of process-iterations show
no laggard (Fig. 7b) and 4.8 % contain a rare, high-magnitude laggard
(Fig. 7c).
"""

import pytest

from repro.experiments.figures import figure7_minimd_classes
from repro.experiments.paper import SECTION4_METRICS


def test_figure7_minimd_classes(benchmark, bench_results, bench_runs):
    figure = benchmark(
        figure7_minimd_classes, bench_results["minimd"], shards=bench_runs["minimd"]
    )
    steady_laggard = figure["steady_laggard_fraction"]
    # rare but present: an order of magnitude rarer than MiniFE's 22 %
    assert 0.0 < steady_laggard < 0.15
    assert steady_laggard < SECTION4_METRICS["minife"]["laggard_fraction"]

    initial = figure["initial_histogram"]
    no_laggard = figure["no_laggard_histogram"]
    assert initial is not None and no_laggard is not None
    # warm-up spread ≈ 2 ms; steady-state spread well under 1 ms
    assert 1.0e-3 < initial.spread() < 4.0e-3
    assert no_laggard.spread() < 1.0e-3
    if figure["laggard_histogram"] is not None:
        assert figure["laggard_histogram"].spread() > 1.0e-3
