"""§4.2 (S1) — scalar metrics: median arrival, IQR, laggard %, reclaimable
time, idle ratio.

Paper values are recorded in ``repro.experiments.paper`` and the definition
caveat in ``repro.core.reclaimable``; the assertions here are the
qualitative claims the §5 discussion rests on:

* MiniQMC has by far the largest reclaimable time per iteration;
* MiniFE's laggard fraction is a "frequent" ~20 %, MiniMD's a "rare" ~5 %;
* MiniFE's idle ratio is the smallest of the three.
"""

import pytest

from repro.experiments.tables import minimd_phase_table, section4_metrics_table


def test_section4_metrics_table(benchmark, bench_results):
    rows = benchmark(section4_metrics_table, bench_results)
    by_app = {row["application"]: row for row in rows}

    reclaim = {app: by_app[app]["mean_reclaimable_ms (measured)"] for app in by_app}
    assert reclaim["MiniQMC"] > 5 * reclaim["MiniFE"]
    assert reclaim["MiniQMC"] > 5 * reclaim["MiniMD"]

    laggard = {app: by_app[app]["laggard_fraction (measured)"] for app in by_app}
    assert laggard["MiniFE"] > 0.10

    idle = {app: by_app[app]["mean_idle_ratio (measured)"] for app in by_app}
    assert idle["MiniQMC"] > idle["MiniFE"] > 0.0

    for app in ("MiniFE", "MiniMD", "MiniQMC"):
        measured = by_app[app]["mean_median_arrival_ms (measured)"]
        paper = by_app[app]["mean_median_arrival_ms (paper)"]
        assert measured == pytest.approx(paper, rel=0.10)


def test_minimd_phase_metrics(benchmark, bench_results):
    rows = benchmark(minimd_phase_table, bench_results["minimd"])
    warmup, steady = rows
    assert warmup["mean_iqr_ms (measured)"] > 3 * steady["mean_iqr_ms (measured)"]
    assert warmup["mean_iqr_ms (measured)"] == pytest.approx(
        warmup["mean_iqr_ms (paper)"], rel=0.5
    )
