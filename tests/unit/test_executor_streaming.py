"""Regression tests for the executor's incremental shard contract.

``ShardExecutor.iter_shards`` documents that each shard is yielded as soon
as it is available — before later shards have run — and that ``on_shard``
observes shards live.  The campaign service's shard streaming (and any
progress UI) depends on this: if the executor ever buffered the whole
campaign before yielding, streams would only "arrive" after the campaign
finished.
"""

import numpy as np
import pytest

from repro.core.timing import TimingDataset, TimingShard
from repro.experiments.backends import (
    CampaignBackend,
    ShardSpec,
    register_backend,
    unregister_backend,
)
from repro.experiments.config import CampaignConfig
from repro.experiments.executor import ShardExecutor

BACKEND_NAME = "unit-test-counting"


class CountingBackend(CampaignBackend):
    """Constant-time backend that counts how many shards have been computed.

    The class-level counter is only meaningful for serial / thread-mode
    execution (process pools would count in the children) — which is exactly
    what these tests use.
    """

    computed = 0

    def shard_specs(self, config):
        return [
            ShardSpec(trial=t, process=p)
            for t in range(config.trials)
            for p in range(config.processes)
        ]

    def run_shard(self, config, spec, streams):
        type(self).computed += 1
        n = config.iterations * config.threads
        iteration, thread = np.divmod(np.arange(n), config.threads)
        columns = {
            "trial": np.full(n, spec.trial),
            "process": np.full(n, spec.process),
            "iteration": iteration,
            "thread": thread,
            "compute_time_s": np.full(n, 1.0e-3),
        }
        return TimingShard(trial=spec.trial, process=spec.process, columns=columns)


@pytest.fixture()
def counting_backend():
    CountingBackend.computed = 0
    register_backend(BACKEND_NAME)(CountingBackend)
    try:
        yield CountingBackend
    finally:
        unregister_backend(BACKEND_NAME)


@pytest.fixture()
def config(counting_backend):
    config = CampaignConfig.smoke(application="minife")
    config = config.scaled(trials=2, processes=3)
    config.backend = BACKEND_NAME
    return config


class TestIncrementalContract:
    def test_serial_shards_arrive_before_campaign_finishes(self, config):
        """Consuming one shard must not force the remaining five to run."""
        executor = ShardExecutor(max_workers=1)
        backend = CountingBackend()
        iterator = executor.iter_shards(backend, config)
        first = next(iterator)
        assert first.trial == 0 and first.process == 0
        assert CountingBackend.computed == 1  # five shards still pending
        second = next(iterator)
        assert (second.trial, second.process) == (0, 1)
        assert CountingBackend.computed == 2
        rest = list(iterator)
        assert len(rest) == 4
        assert CountingBackend.computed == 6

    def test_pooled_shards_arrive_within_inflight_window(self, config):
        """Thread-pool mode may run ahead, but only by the bounded window."""
        config.max_workers = 2
        executor = ShardExecutor(mode="thread")
        backend = CountingBackend()
        iterator = executor.iter_shards(backend, config)
        next(iterator)
        # with 2 workers the in-flight window is 2 * workers = 4 shards;
        # the first yield must happen long before all 6 have run
        assert CountingBackend.computed <= 5
        assert len(list(iterator)) == 5

    def test_on_shard_observes_shards_live(self, config):
        """``run(on_shard=...)`` fires per shard, before the campaign ends."""
        executor = ShardExecutor(max_workers=1)
        backend = CountingBackend()
        observed = []

        def on_shard(shard):
            # at observation time, shards after this one have not run yet
            observed.append((shard.trial, shard.process, CountingBackend.computed))

        shards = executor.run(backend, config, on_shard=on_shard)
        assert len(shards) == 6
        assert [(t, p) for t, p, _ in observed] == [
            (t, p) for t in range(2) for p in range(3)
        ]
        assert [count for _, _, count in observed] == [1, 2, 3, 4, 5, 6]

    def test_on_shard_order_matches_yield_order(self, config):
        executor = ShardExecutor(max_workers=1)
        backend = CountingBackend()
        seen = []
        yielded = list(
            executor.iter_shards(
                backend, config, on_shard=lambda s: seen.append(s)
            )
        )
        assert [id(s) for s in seen] == [id(s) for s in yielded]

    def test_merged_iter_shards_forwards_on_shard(self, config):
        executor = ShardExecutor(max_workers=1)
        backend = CountingBackend()
        calls = []
        dataset = TimingDataset.merge(
            executor.iter_shards(
                backend, config, on_shard=lambda s: calls.append(s.n_samples)
            )
        )
        assert len(calls) == 6
        assert sum(calls) == dataset.n_samples
