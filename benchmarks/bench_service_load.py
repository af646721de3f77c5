"""Service load benchmark: N concurrent clients against the campaign service.

Two load shapes, both a duplicate+distinct mix (every distinct config is
submitted several times, concurrently):

* a constant-time counting backend, isolating the *service* overhead
  (scheduling, coalescing, shard broadcast) from campaign compute — and
  proving the coalescing claim exactly: duplicates never reach the backend;
* real smoke-scale campaigns on the default campaign backend, the end-to-end
  requests/s a deployment would see.

Each records requests/s and p50/p99 submit-to-result latency in
``extra_info`` (landing in ``bench.json`` for the CI benchmark job) and
asserts coalescing effectiveness before timing anything.
"""

import asyncio
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.aggregation import campaign_block
from repro.experiments.backends import (
    CampaignBackend,
    ShardSpec,
    register_backend,
    unregister_backend,
)
from repro.experiments.config import CampaignConfig
from repro.service import CampaignService

BACKEND_NAME = "bench-service-counting"

#: the load mix: N_REQUESTS submissions over N_DISTINCT distinct configs
N_REQUESTS = 24
N_DISTINCT = 8
SHARDS_PER_JOB = 3  # 1 trial x 3 processes


class CountingBackend(CampaignBackend):
    """Constant-time backend counting shard executions (thread mode only)."""

    computed = 0

    def shard_specs(self, config):
        return [
            ShardSpec(trial=t, process=p)
            for t in range(config.trials)
            for p in range(config.processes)
        ]

    def unit_block(self, config, spec):
        type(self).computed += 1
        times = np.full((1, config.iterations, config.threads), 1.0e-3)
        return campaign_block([(spec.trial, spec.process)], times)


@pytest.fixture(scope="module")
def counting_backend():
    CountingBackend.computed = 0
    register_backend(BACKEND_NAME)(CountingBackend)
    try:
        yield CountingBackend
    finally:
        unregister_backend(BACKEND_NAME)


def _synthetic_config(i: int) -> CampaignConfig:
    config = CampaignConfig.smoke(application="minife")
    config = config.scaled(trials=1, processes=SHARDS_PER_JOB)
    return replace(config, seed=1000 + i, backend=BACKEND_NAME)


def _real_config(i: int) -> CampaignConfig:
    return replace(CampaignConfig.smoke(application="minife"), seed=2000 + i)


def _run_load(n_requests: int, n_distinct: int, make_config, *, workers: int = 4):
    """Submit the whole mix up front, then await every result.

    ``CampaignService.submit`` never suspends, so the submission loop is
    atomic with respect to the event loop: all duplicates are admitted
    while their original is still in flight, making the coalescing counts
    deterministic (``n_requests - n_distinct`` hits, exactly).
    """

    async def load():
        async with CampaignService(
            workers=workers, max_queue=n_requests, executor_mode="thread"
        ) as service:
            started = time.perf_counter()
            handles = [
                await service.submit(make_config(i % n_distinct))
                for i in range(n_requests)
            ]
            latencies = []

            async def finish(handle):
                await handle.result()
                latencies.append(time.perf_counter() - started)

            await asyncio.gather(*(finish(h) for h in handles))
            wall = time.perf_counter() - started
            stats = service.stats()
        assert stats["coalesce_hits"] == n_requests - n_distinct
        assert stats["coalesce_misses"] == n_distinct
        # duplicates share their original's job (and therefore its digest)
        for i in range(n_requests):
            assert handles[i].digest == handles[i % n_distinct].digest
        return {
            "requests_per_second": n_requests / wall,
            "latency_p50_ms": float(np.percentile(latencies, 50) * 1e3),
            "latency_p99_ms": float(np.percentile(latencies, 99) * 1e3),
            "coalesce_hits": stats["coalesce_hits"],
        }

    return asyncio.run(load())


def test_service_load_synthetic_backend(benchmark, counting_backend):
    """Service overhead only: duplicates must never reach the backend."""

    def run():
        counting_backend.computed = 0
        metrics = _run_load(N_REQUESTS, N_DISTINCT, _synthetic_config)
        # the coalescing-effectiveness claim, measured at the backend:
        # 24 requests, 8 distinct configs -> exactly 8 executions
        assert counting_backend.computed == N_DISTINCT * SHARDS_PER_JOB
        return metrics

    metrics = benchmark(run)
    benchmark.extra_info.update(metrics)
    assert metrics["requests_per_second"] > 0
    assert metrics["latency_p50_ms"] <= metrics["latency_p99_ms"]


def test_service_load_real_campaigns(benchmark):
    """End-to-end requests/s for real smoke-scale campaigns."""
    metrics = benchmark(_run_load, 12, 4, _real_config)
    benchmark.extra_info.update(metrics)
    assert metrics["coalesce_hits"] == 8
