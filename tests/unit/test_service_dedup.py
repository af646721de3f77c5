"""Unit tests for request coalescing: duplicate submissions run once.

``RequestCoalescer`` is exercised directly, then through the full
``CampaignService`` with a backend that counts its shard executions — two
identical concurrent submissions must reach the backend exactly once.
"""

import asyncio

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
from repro.experiments.session import config_cache_key
from repro.service import CampaignService, Job, RequestCoalescer

BACKEND_NAME = "unit-test-dedup-counting"


class CountingBackend(CampaignBackend):
    """Constant-time backend counting shard executions in-process.

    The class-level counter is only valid for serial/thread execution
    (process pools would count in the children), so the service tests
    below run with ``executor_mode="thread"``.
    """

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


@pytest.fixture()
def counting_backend():
    CountingBackend.computed = 0
    register_backend(BACKEND_NAME)(CountingBackend)
    try:
        yield CountingBackend
    finally:
        unregister_backend(BACKEND_NAME)


def _config() -> CampaignConfig:
    config = CampaignConfig.smoke(application="minife")
    config = config.scaled(trials=1, processes=3)
    config.backend = BACKEND_NAME
    return config


class TestRequestCoalescer:
    def test_lookup_register_release_cycle(self):
        async def scenario():
            coalescer = RequestCoalescer()
            config = _config()
            key = config_cache_key(config)
            assert coalescer.lookup(key) is None
            job = Job("job-1", config)
            coalescer.register(job)
            assert coalescer.lookup(key) is job
            assert coalescer.lookup(key) is job
            stats = coalescer.stats()
            assert stats["coalesce_misses"] == 1
            assert stats["coalesce_hits"] == 2
            assert stats["inflight"] == 1
            # settling the job releases the key: the next lookup misses
            job._finish(None, "", from_cache=False)
            assert coalescer.lookup(key) is None
            assert coalescer.stats()["inflight"] == 0

        asyncio.run(scenario())

    def test_distinct_keys_do_not_collide(self):
        async def scenario():
            coalescer = RequestCoalescer()
            minife = Job("job-1", _config())
            miniqmc_config = _config()
            miniqmc_config.application = "miniqmc"
            miniqmc = Job("job-2", miniqmc_config)
            coalescer.register(minife)
            coalescer.register(miniqmc)
            assert coalescer.lookup(minife.cache_key) is minife
            assert coalescer.lookup(miniqmc.cache_key) is miniqmc
            assert minife.cache_key != miniqmc.cache_key

        asyncio.run(scenario())


class TestServiceCoalescing:
    def test_duplicate_submissions_execute_backend_once(self, counting_backend):
        async def scenario():
            async with CampaignService(workers=2, executor_mode="thread") as service:
                first = await service.submit(_config())
                second = await service.submit(_config())
                assert not first.coalesced
                assert second.coalesced
                assert second.job is first.job
                result_a = await first.result()
                result_b = await second.result()
                assert result_a is result_b
                stats = service.stats()
                assert stats["coalesce_hits"] == 1
                assert stats["coalesce_misses"] == 1
                assert stats["submitted"] == 2

        asyncio.run(scenario())
        # 1 trial x 3 processes = 3 shards, computed exactly once
        assert counting_backend.computed == 3

    def test_coalesce_false_forces_a_second_execution(self, counting_backend):
        async def scenario():
            async with CampaignService(workers=2, executor_mode="thread") as service:
                first = await service.submit(_config())
                second = await service.submit(_config(), coalesce=False)
                assert second.job is not first.job
                await first.result()
                await second.result()
                assert first.digest == second.digest

        asyncio.run(scenario())
        assert counting_backend.computed == 6
