"""Throughput of the measurement-campaign substrates themselves.

Not a paper artefact, but the number a downstream user cares about when
scaling the reproduction up: samples generated per second on each campaign
backend (``campaign`` and the per-iteration reference sampler
``vectorized`` at benchmark scale, the discrete-event reference sampler
``event`` reduced), and normality tests per second in the batch battery.

Every backend benchmark stores ``samples_per_second`` in the pytest-benchmark
``extra_info``, so the CI benchmark job's ``bench.json`` carries per-backend
throughput alongside the raw timings; the schedule sweep additionally tags
each entry with its schedule clause, giving a per-(backend, schedule)
samples/sec table.

Three regression guards hold the lifted ``campaign`` kernel against the
per-iteration ``vectorized`` reference (``tests/oracles/vectorized.py``,
which the test tree registers), each well under the speedup
measured best-of-3 on a 2-core host, so they trip only on a real
regression, not on machine noise:

* ``test_campaign_static_speedup_guard`` — MiniFE at benchmark scale under
  its default static schedule (measured ~10-13x, guard 3.5x);
* ``test_campaign_workqueue_speedup_guard`` — MiniMD under ``dynamic``, the
  clause whose per-row work-queue replay the row-vectorized kernel lifts
  (measured ~24-36x, guard 6x);
* ``test_campaign_sharded_speedup_guard`` — an 8-shard ``dynamic,4`` MiniFE
  campaign, where the tensor backend folds the deterministic schedule once
  for the whole campaign (measured ~10-14x, guard 6.5x).

``test_campaign_parallel_throughput`` sweeps the chunk worker pool over
``max_workers`` 1/2/4 (tagging each entry with ``workers`` for the CI
table), and ``test_campaign_parallel_scaling_guard`` requires the 4-worker
fold to stay >= 2x serial on machines with at least 4 cores.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

import oracles.vectorized  # noqa: F401  (registers the "vectorized" backend)
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession
from repro.stats.battery import NormalityBattery

#: guard thresholds: how much faster than the vectorized path the campaign
#: backend must stay on each guard's configuration (see the module docstring)
MIN_STATIC_SPEEDUP = 3.5
MIN_WORKQUEUE_SPEEDUP = 6.0
MIN_SHARDED_SPEEDUP = 6.5

#: guard threshold: the chunk-parallel campaign fold at 4 workers must be
#: at least this much faster than the serial fold (needs >= 4 CPU cores;
#: the guard skips on smaller machines, where process workers merely
#: time-slice one core)
MIN_PARALLEL_SCALING = 2.0

#: the paper's scheduling clauses, swept per backend below
SCHEDULE_CLAUSES = ("static", "dynamic", "dynamic,4", "guided")


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def _run_backend(config):
    return CampaignSession(config).run(use_cache=False).dataset


def _record_rate(benchmark, n_samples: int) -> None:
    """Store the best run's samples/sec in ``extra_info``; with timing off
    (``--benchmark-disable``) there is no timing to derive it from."""
    if benchmark.stats is not None:
        best = benchmark.stats.stats.min
        benchmark.extra_info["samples_per_second"] = n_samples / best


def _best_rate(config, repeats: int = 3) -> float:
    """Best-of-N samples/sec of one campaign configuration."""
    _run_backend(config)  # warm-up: calibration, allocator, caches
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        dataset = _run_backend(config)
        best = min(best, time.perf_counter() - start)
    return dataset.n_samples / best


@pytest.mark.parametrize("backend", ["vectorized", "campaign"])
def test_campaign_backend_throughput(benchmark, backend):
    config = CampaignConfig(
        application="minife", trials=1, processes=2, iterations=200, threads=48,
        seed=1, backend=backend,
    )
    benchmark.group = "campaign-backends"
    dataset = benchmark(_run_backend, config)
    assert dataset.n_samples == config.samples_per_application
    benchmark.extra_info["backend"] = backend
    _record_rate(benchmark, dataset.n_samples)


@pytest.mark.parametrize("application", ["minife", "minimd", "miniqmc"])
def test_campaign_backend_throughput_per_app(benchmark, application):
    config = CampaignConfig(
        application=application, trials=1, processes=2, iterations=200,
        threads=48, seed=1, backend="campaign",
    )
    benchmark.group = "campaign-backend"
    dataset = benchmark(_run_backend, config)
    assert dataset.n_samples == config.samples_per_application
    benchmark.extra_info["backend"] = "campaign"
    _record_rate(benchmark, dataset.n_samples)


@pytest.mark.parametrize("schedule", SCHEDULE_CLAUSES)
@pytest.mark.parametrize("backend", ["vectorized", "campaign"])
def test_campaign_schedule_throughput(benchmark, backend, schedule):
    """Per-(backend, schedule) sampling throughput.

    The work-queue clauses (``dynamic``/``guided``) are where the campaign
    backend's row-vectorized replay replaces the per-iteration heap loop;
    the CI benchmark job prints this table from ``bench.json``.  MiniMD is
    the app whose per-iteration neighbour-count fluctuations make every
    iteration a fresh schedule fold (MiniFE's matrix is deterministic, so
    the campaign backend folds its schedule once and the clause barely
    matters there).
    """
    config = CampaignConfig(
        application="minimd", trials=1, processes=2, iterations=200, threads=48,
        seed=1, backend=backend, schedule=schedule,
    )
    benchmark.group = "campaign-schedules"
    dataset = benchmark(_run_backend, config)
    assert dataset.n_samples == config.samples_per_application
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["schedule"] = schedule
    _record_rate(benchmark, dataset.n_samples)


@pytest.mark.parametrize("max_workers", [1, 2, 4])
def test_campaign_parallel_throughput(benchmark, max_workers):
    """samples/sec of the chunk-parallel campaign fold at 1 / 2 / 4 workers.

    A 32-shard ``dynamic,4`` MiniFE campaign, big enough that the pool and
    shared-memory overheads amortize on multi-core machines; ``workers`` in
    ``extra_info`` feeds the CI benchmark table's workers column.  The
    scaling *guard* lives in :func:`test_campaign_parallel_scaling_guard` —
    this entry only records the sweep.
    """
    config = dataclasses.replace(
        CampaignConfig.benchmark_scale("minife")
        .with_schedule("dynamic,4")
        .with_backend("campaign"),
        trials=16,
        max_workers=max_workers,
    )
    benchmark.group = "campaign-workers"
    dataset = benchmark(_run_backend, config)
    assert dataset.n_samples == config.samples_per_application
    benchmark.extra_info["backend"] = "campaign"
    benchmark.extra_info["schedule"] = "dynamic,4"
    benchmark.extra_info["workers"] = max_workers
    _record_rate(benchmark, dataset.n_samples)


def test_event_campaign_throughput(benchmark):
    config = CampaignConfig(
        application="miniqmc", trials=1, processes=1, iterations=10, threads=24,
        seed=1, backend="event",
    )
    benchmark.group = "campaign-backends"
    dataset = benchmark(_run_backend, config)
    assert dataset.n_samples == 240
    benchmark.extra_info["backend"] = "event"
    _record_rate(benchmark, dataset.n_samples)


def _assert_campaign_speedup(base, minimum: float, what: str) -> None:
    vectorized = _best_rate(base.with_backend("vectorized"))
    campaign = _best_rate(base.with_backend("campaign"))
    speedup = campaign / vectorized
    assert speedup >= minimum, (
        f"campaign backend is only {speedup:.1f}x the vectorized path on "
        f"{what} ({campaign:,.0f} vs {vectorized:,.0f} samples/s); the "
        f"whole-campaign tensor kernel has regressed below the {minimum}x guard"
    )


def test_campaign_static_speedup_guard():
    """Regression guard: the campaign kernel must stay >= 3.5x the
    vectorized path on MiniFE at benchmark scale (measured ~10-13x)."""
    _assert_campaign_speedup(
        CampaignConfig.benchmark_scale("minife"),
        MIN_STATIC_SPEEDUP,
        "benchmark-scale MiniFE",
    )


def test_campaign_workqueue_speedup_guard():
    """Regression guard for the row-vectorized work-queue kernel: on a
    ``dynamic``-schedule campaign the campaign backend must stay >= 6x the
    vectorized path.  MiniMD because its per-iteration cost fluctuations
    force a schedule fold per row — the path the kernel vectorizes
    (measured ~24-36x; MiniFE's deterministic matrix folds once, so it cannot
    expose a work-queue regression)."""
    _assert_campaign_speedup(
        CampaignConfig.benchmark_scale("minimd").with_schedule("dynamic"),
        MIN_WORKQUEUE_SPEEDUP,
        "a dynamic MiniMD schedule",
    )


def test_campaign_sharded_speedup_guard():
    """Regression guard for the whole-campaign fold: on an 8-shard
    ``dynamic,4``-schedule MiniFE campaign the campaign backend must stay
    >= 6.5x the vectorized path.  MiniFE because its matrix is
    deterministic: the campaign backend folds the schedule *once* for the
    entire campaign (broadcasting the cached busy-time row over every
    shard) and its per-shard cost is the delay/noise draws alone (measured
    ~10-14x)."""
    base = dataclasses.replace(
        CampaignConfig.benchmark_scale("minife").with_schedule("dynamic,4"),
        trials=4,
    )
    _assert_campaign_speedup(base, MIN_SHARDED_SPEEDUP, "an 8-shard dynamic,4 MiniFE")


def test_campaign_parallel_scaling_guard():
    """Regression guard for the chunk worker pool: a 128-shard
    ``dynamic,4`` MiniFE campaign at ``max_workers=4`` must run >= 2x
    faster than the serial fold.  The campaign is scaled up on the trials
    axis because the per-chunk fold is only ~15 ms — at benchmark scale's 4
    shards the pool could never amortize its startup.  Requires >= 4 CPU
    cores: process workers on fewer cores time-slice instead of scaling, so
    the guard skips (CI's runners have 4)."""
    cores = _available_cores()
    if cores < 4:
        pytest.skip(f"parallel scaling needs >= 4 CPU cores, have {cores}")
    base = dataclasses.replace(
        CampaignConfig.benchmark_scale("minife")
        .with_schedule("dynamic,4")
        .with_backend("campaign"),
        trials=64,
    )
    serial = _best_rate(dataclasses.replace(base, max_workers=1))
    parallel = _best_rate(dataclasses.replace(base, max_workers=4))
    speedup = parallel / serial
    assert speedup >= MIN_PARALLEL_SCALING, (
        f"chunk-parallel campaign at 4 workers is only {speedup:.1f}x the "
        f"serial fold ({parallel:,.0f} vs {serial:,.0f} samples/s); the "
        f"worker pool has regressed below the {MIN_PARALLEL_SCALING}x guard"
    )


def test_batch_normality_battery_throughput(benchmark, rng_seed=3):
    groups = np.random.default_rng(rng_seed).normal(size=(2000, 48))
    battery = NormalityBattery()
    report = benchmark(battery.run, groups)
    assert report.n_groups == 2000
