#!/usr/bin/env python3
"""MiniFE feasibility study (the paper's §4.2.1 walk-through).

Reproduces, at a configurable scale, everything the paper reports about
MiniFE's mat-vec region:

* the per-iteration percentile plot (Figure 4),
* the no-laggard / laggard distribution classes with example histograms
  (Figure 5) and the fraction of iterations in each class,
* the reclaimable-time and idle-ratio metrics, and
* the §5 recommendation: a timeout-based flush, evaluated quantitatively
  against bulk and fine-grained delivery.

Run with::

    python examples/minife_feasibility.py            # reduced scale (~seconds)
    python examples/minife_feasibility.py --trials 10 --processes 8  # paper scale
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import TimeoutStrategy, aggregate, compare_strategies
from repro.core.laggard import IterationClass
from repro.experiments.config import CampaignConfig
from repro.experiments.figures import figure5_minife_classes
from repro.experiments.paper import SECTION4_METRICS
from repro.experiments.session import CampaignSession
from repro.viz import ascii_histogram, ascii_percentile_plot, ascii_table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--processes", type=int, default=2)
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--threads", type=int, default=48)
    parser.add_argument("--seed", type=int, default=20230421)
    parser.add_argument("--buffer-mb", type=float, default=8.0)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    config = CampaignConfig(
        application="minife",
        trials=args.trials,
        processes=args.processes,
        iterations=args.iterations,
        threads=args.threads,
        seed=args.seed,
    )
    print(
        f"running MiniFE campaign: {config.trials} trials x {config.processes} "
        f"processes x {config.iterations} iterations x {config.threads} threads"
    )
    result = CampaignSession(config).run()
    results = result.analyze()
    paper = SECTION4_METRICS["minife"]

    # ------------------------------------------------------------------ Figure 4
    series = results["percentiles"]
    print("\nFigure 4 analogue — per-iteration arrival percentiles (ms):")
    print(ascii_percentile_plot(series, width=70, height=16))
    print(
        f"\nmean median arrival: {series.mean_median():.2f} ms "
        f"(paper: {paper['mean_median_arrival_ms']:.2f} ms); "
        f"mean IQR {series.iqr.mean():.3f} ms (paper {paper['mean_iqr_ms']:.2f} ms); "
        f"skew: {series.skew_direction()} arrivals dominate"
    )

    # ------------------------------------------------------------------ Figure 5
    figure5 = figure5_minife_classes(results, shards=result)
    print(
        f"\nFigure 5 analogue — {100 * figure5['no_laggard_fraction']:.1f}% of "
        f"process-iterations contain no laggard, "
        f"{100 * figure5['laggard_fraction']:.1f}% contain one "
        f"(paper: 77.6% / 22.4%)"
    )
    for label in ("no_laggard", "laggard"):
        histogram = figure5[f"{label}_histogram"]
        if histogram is not None:
            print(f"\nexample {label.replace('_', '-')} iteration (50 µs bins):")
            print(ascii_histogram(histogram, max_rows=14))

    # ------------------------------------------------------- reclaimable time
    reclaimable = results["reclaimable"]
    print(
        f"\nreclaimable time: {reclaimable.mean_reclaimable_s * 1e3:.2f} ms per "
        f"process-iteration on average (idle ratio {reclaimable.mean_idle_ratio:.4f})"
    )

    # ------------------------------------------------------------- strategies
    grouped = aggregate(result.dataset, "process_iteration")
    key = results["laggards"].exemplar(IterationClass.LAGGARD)
    if key is not None:
        arrivals = grouped.group(key)
        buffer_bytes = int(args.buffer_mb * 1024 * 1024)
        comparison = compare_strategies(
            arrivals,
            buffer_bytes=buffer_bytes,
            strategies=None,
        )
        # add a tighter timeout tuned from the measured laggard threshold
        tuned = TimeoutStrategy(0.5e-3)
        comparison.outcomes[tuned.name] = tuned.evaluate(
            arrivals, buffer_bytes=buffer_bytes
        )
        print(
            f"\n§5 recommendation check — delivery strategies on a laggard "
            f"iteration ({args.buffer_mb:g} MB buffer):"
        )
        rows = [
            {
                "strategy": name,
                "completion (ms)": outcome.completion_s * 1e3,
                "exposed after compute (us)": outcome.exposed_after_compute_s * 1e6,
            }
            for name, outcome in comparison.outcomes.items()
        ]
        print(ascii_table(rows))

    print("\n" + results.report().summary())


if __name__ == "__main__":
    main()
