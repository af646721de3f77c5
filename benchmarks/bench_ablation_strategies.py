"""Ablation A1 — early-bird delivery strategies (§5 discussion).

Compares bulk, fine-grained, binned and timeout delivery on arrival vectors
measured from each application's campaign, plus a buffer-size sweep.  The §5
claims under test:

* MiniQMC-like wide distributions benefit from both binned and fine-grained
  early-bird delivery;
* MiniFE-like rare-laggard profiles are served well by a timeout flush;
* when arrivals are nearly simultaneous (MiniMD steady state) early-bird
  delivery cannot beat the bulk send by much — the motivation for "a more
  sophisticated approach".

The buffer-size sweep checks where the gain comes from: fine-grained
delivery hides the transfer behind the arrival spread, so its gain over
bulk grows with the buffer while the transfer is shorter than the spread
and shrinks once the transfer outlasts it.
"""

import numpy as np
import pytest

from repro.analysis import analyze_dataset
from repro.core.aggregation import AggregationLevel, aggregate
from repro.core.laggard import IterationClass
from repro.core.strategies import (
    BinnedStrategy,
    BulkStrategy,
    FineGrainedStrategy,
    TimeoutStrategy,
    compare_strategies,
)
from repro.mpi.network import omni_path

BUFFER_BYTES = 8 * 1024 * 1024
#: buffer sizes (MiB) of the gain sweep: transfers from ~0.1 ms to ~0.3 s on
#: the Omni-Path-like fabric, either side of a MiniQMC WIDE iteration's
#: tens-of-milliseconds arrival spread
GAIN_SWEEP_MB = (1, 16, 64, 256, 1024, 4096)


def _arrivals_of_class(dataset, iteration_class):
    key = analyze_dataset(dataset, ["laggards"])["laggards"].exemplar(iteration_class)
    if key is None:
        return None
    return aggregate(dataset, AggregationLevel.PROCESS_ITERATION).group(key)


def test_strategies_on_miniqmc_wide_distribution(benchmark, miniqmc_ds):
    arrivals = _arrivals_of_class(miniqmc_ds, IterationClass.WIDE)
    assert arrivals is not None
    comparison = benchmark(
        compare_strategies, arrivals, buffer_bytes=BUFFER_BYTES
    )
    speedups = comparison.speedup_over_bulk()
    bulk_exposed = comparison.outcomes["bulk"].exposed_after_compute_s
    fine_exposed = comparison.outcomes["fine_grained"].exposed_after_compute_s
    binned_exposed = comparison.outcomes["binned(8)"].exposed_after_compute_s
    # the wide arrival spread lets early-bird delivery hide almost the whole
    # message behind the slowest movers' compute
    assert fine_exposed < 0.25 * bulk_exposed
    assert binned_exposed < bulk_exposed
    assert speedups["fine_grained"] > 1.0
    assert comparison.best().strategy != "bulk"


def test_strategies_on_minife_laggard_iteration(benchmark, minife_ds):
    arrivals = _arrivals_of_class(minife_ds, IterationClass.LAGGARD)
    assert arrivals is not None
    comparison = benchmark(
        compare_strategies,
        arrivals,
        buffer_bytes=BUFFER_BYTES,
        strategies=(
            BulkStrategy(),
            FineGrainedStrategy(),
            BinnedStrategy(8),
            TimeoutStrategy(0.5e-3),
        ),
    )
    speedups = comparison.speedup_over_bulk()
    # a timeout flush reclaims most of what fine-grained reclaims on this
    # profile (the §5 recommendation for MiniFE)
    assert speedups["timeout(0.5ms)"] > 1.0
    assert speedups["timeout(0.5ms)"] >= 0.9 * speedups["fine_grained"]


def test_strategies_on_minimd_tight_iteration(benchmark, minimd_ds):
    arrivals = _arrivals_of_class(minimd_ds, IterationClass.NO_LAGGARD)
    assert arrivals is not None
    comparison = benchmark(
        compare_strategies, arrivals, buffer_bytes=BUFFER_BYTES
    )
    speedups = comparison.speedup_over_bulk()
    # nearly simultaneous arrivals: early-bird gains are marginal (< 5 %)
    assert speedups["fine_grained"] < 1.05


@pytest.mark.parametrize("buffer_mb", [1, 8, 64])
def test_buffer_size_sweep_on_miniqmc(benchmark, miniqmc_ds, buffer_mb):
    """Fine-grained delivery never loses to the bulk send, whatever the
    message size relative to the arrival spread."""
    arrivals = _arrivals_of_class(miniqmc_ds, IterationClass.WIDE)
    comparison = benchmark(
        compare_strategies, arrivals, buffer_bytes=buffer_mb * 1024 * 1024
    )
    assert comparison.speedup_over_bulk()["fine_grained"] >= 1.0 - 1e-9


def _fine_grained_gains(arrivals):
    """Relative completion-time gain of fine-grained over bulk delivery, per
    buffer size of :data:`GAIN_SWEEP_MB`."""
    gains = {}
    for buffer_mb in GAIN_SWEEP_MB:
        comparison = compare_strategies(
            arrivals, buffer_bytes=buffer_mb * 1024 * 1024
        )
        bulk = comparison.outcomes["bulk"]
        fine = comparison.outcomes["fine_grained"]
        gains[buffer_mb] = (bulk.completion_s - fine.completion_s) / bulk.completion_s
    return gains


def test_gain_rises_then_falls_across_the_crossover(benchmark, miniqmc_ds):
    """The crossover is the buffer whose transfer takes as long as the
    arrival spread: below it a larger buffer hides more transfer behind the
    stragglers, above it the transfer outlasts the spread and the bulk
    send's own cost dominates both strategies."""
    arrivals = _arrivals_of_class(miniqmc_ds, IterationClass.WIDE)
    spread_s = float(np.ptp(arrivals))
    bandwidth = omni_path().bandwidth_bytes_per_s
    gains = benchmark(_fine_grained_gains, arrivals)
    below = [gain for mb, gain in gains.items() if mb * 2**20 / bandwidth < spread_s]
    above = [gain for mb, gain in gains.items() if mb * 2**20 / bandwidth > spread_s]
    assert len(below) >= 2 and len(above) >= 2, (spread_s, gains)
    assert all(a < b for a, b in zip(below, below[1:])), gains
    assert all(a > b for a, b in zip(above, above[1:])), gains
