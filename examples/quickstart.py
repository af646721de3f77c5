#!/usr/bin/env python3
"""Quickstart: measure thread arrival times and ask the early-bird question.

This walks through the paper's methodology end to end, in three steps:

1. Instrument a *real* Python thread pool with the Listing-1 procedure
   (barrier → timestamp → static loop share → timestamp) just to show the
   measurement interface; absolute numbers from CPython threads are not
   meaningful (GIL), which is exactly why the package ships a simulated
   substrate.
2. Run a small simulated MiniFE campaign (the paper's §3.2 procedure at
   reduced scale) and print the per-application feasibility report.
3. Feed one measured arrival vector to the early-bird model and compare
   delivery strategies.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import math

import numpy as np

from repro import CampaignConfig, CampaignSession
from repro.analysis import HistogramPass
from repro.core import TimingDataset, aggregate, compare_strategies
from repro.core.instrument import PythonThreadRegion
from repro.viz import ascii_histogram, ascii_table


def measure_real_thread_pool() -> None:
    """Step 1: the measurement procedure on real (GIL-bound) Python threads."""
    print("=" * 72)
    print("Step 1: instrumenting a real Python thread pool (illustrative only)")
    print("=" * 72)

    def work(item: int) -> None:
        # a little numerical busy-work per loop item
        math.fsum(math.sqrt(i + 1) for i in range(200 + (item % 7) * 40))

    region = PythonThreadRegion(n_threads=4, work_fn=work, n_items=64)
    dataset = region.run(n_iterations=5, application="python-pool")
    times_ms = dataset.compute_times_ms
    print(f"collected {dataset.n_samples} samples from {dataset.n_threads} threads")
    print(
        f"per-thread compute time: median {np.median(times_ms):.3f} ms, "
        f"min {times_ms.min():.3f} ms, max {times_ms.max():.3f} ms"
    )
    print("(CPython threads share the GIL; use the simulated substrate for analysis)\n")


def run_simulated_campaign():
    """Step 2: the paper's measurement campaign on the simulated substrate."""
    print("=" * 72)
    print("Step 2: simulated MiniFE campaign (reduced scale)")
    print("=" * 72)
    config = CampaignConfig(
        application="minife", trials=1, processes=2, iterations=40, threads=48,
        seed=2023,
    )
    result = CampaignSession(config).run()
    results = result.analyze(
        ["percentiles", "laggards", "reclaimable", "normality", "earlybird",
         HistogramPass(50e-6)]
    )
    print(results.report().summary())
    print()
    print("Application-level arrival histogram (Figure 3a analogue, 50 µs bins):")
    print(ascii_histogram(results["histogram"], max_rows=18))
    print()
    return result.dataset


def evaluate_strategies(dataset: TimingDataset) -> None:
    """Step 3: what do these arrivals mean for partitioned communication?"""
    print("=" * 72)
    print("Step 3: early-bird delivery strategies on one measured iteration")
    print("=" * 72)
    grouped = aggregate(dataset, "process_iteration")
    arrivals = grouped.values[len(grouped.values) // 2]
    comparison = compare_strategies(arrivals, buffer_bytes=8 * 1024 * 1024)
    rows = []
    for name, outcome in comparison.outcomes.items():
        rows.append(
            {
                "strategy": name,
                "completion (ms)": outcome.completion_s * 1e3,
                "exposed comm after compute (us)": outcome.exposed_after_compute_s * 1e6,
                "messages": outcome.n_messages,
            }
        )
    print(ascii_table(rows))
    best = comparison.best()
    print(f"\nbest strategy for this iteration: {best.strategy}")


def main() -> None:
    measure_real_thread_pool()
    dataset = run_simulated_campaign()
    evaluate_strategies(dataset)


if __name__ == "__main__":
    main()
