"""Regression tests for the executor's incremental block contract.

``ShardExecutor.iter_blocks`` documents that each unit's block is yielded
as soon as it is available — before later units have run.  The campaign
service's shard streaming (and any progress UI) depends on this: if the
executor ever buffered the whole campaign before yielding, streams would
only "arrive" after the campaign finished.
"""

import numpy as np
import pytest

from repro.core.aggregation import campaign_block
from repro.core.timing import TimingDataset
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


@pytest.fixture()
def config(counting_backend):
    config = CampaignConfig.smoke(application="minife")
    config = config.scaled(trials=2, processes=3)
    config.backend = BACKEND_NAME
    return config


def _keys(blocks):
    return [(sl.trial, sl.process) for block in blocks for sl in block.slices]


class TestIncrementalContract:
    def test_serial_blocks_arrive_before_campaign_finishes(self, config):
        """Consuming one block must not force the remaining five to run."""
        iterator = ShardExecutor().iter_blocks(CountingBackend(), config)
        first = next(iterator)
        assert _keys([first]) == [(0, 0)]
        assert CountingBackend.computed == 1  # five shards still pending
        second = next(iterator)
        assert _keys([second]) == [(0, 1)]
        assert CountingBackend.computed == 2
        rest = list(iterator)
        assert len(rest) == 4
        assert CountingBackend.computed == 6

    def test_pooled_blocks_arrive_within_inflight_window(self, config):
        """Thread-pool mode may run ahead, but only by the bounded window."""
        config.max_workers = 2
        iterator = ShardExecutor(mode="thread").iter_blocks(CountingBackend(), config)
        next(iterator)
        # with 2 workers the in-flight window is 2 * workers = 4 units;
        # the first yield must happen long before all 6 have run
        assert CountingBackend.computed <= 5
        assert len(list(iterator)) == 5

    def test_blocks_are_observed_live(self, config):
        """Each block is delivered before the later units have run."""
        observed = []
        for block in ShardExecutor().iter_blocks(CountingBackend(), config):
            # at delivery time, units after this one have not run yet
            observed.append((_keys([block]), CountingBackend.computed))
        assert [keys for keys, _ in observed] == [
            [(t, p)] for t in range(2) for p in range(3)
        ]
        assert [count for _, count in observed] == [1, 2, 3, 4, 5, 6]

    def test_pooled_blocks_arrive_in_serial_order(self, config):
        config.max_workers = 2
        blocks = ShardExecutor(mode="thread").iter_blocks(CountingBackend(), config)
        assert _keys(blocks) == [(t, p) for t in range(2) for p in range(3)]

    def test_merged_blocks_cover_the_campaign(self, config):
        blocks = list(ShardExecutor().iter_blocks(CountingBackend(), config))
        dataset = TimingDataset.merge(blocks)
        sizes = [sl.n_samples for block in blocks for sl in block.slices]
        assert len(sizes) == 6
        assert sum(sizes) == dataset.n_samples
