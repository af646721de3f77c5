"""Parallel sharded execution must be bit-identical to serial execution."""

import dataclasses

import numpy as np
import pytest

from repro.core.timing import TimingDataset
from repro.experiments.backends import get_backend
from repro.experiments.config import CampaignConfig
from repro.experiments.executor import ShardExecutor
from repro.experiments.session import CampaignSession


def _assert_bit_identical(a, b):
    assert set(a.columns) == set(b.columns)
    for name in sorted(a.columns):
        np.testing.assert_array_equal(
            a.column(name), b.column(name), err_msg=f"column {name!r} differs"
        )


class TestParallelBitIdentical:
    def test_vectorized_parallel_matches_serial(self):
        """The ISSUE acceptance check: smoke minife, 4 process workers."""
        serial = CampaignSession(CampaignConfig.smoke()).run("minife").dataset
        parallel_config = CampaignConfig.smoke().parallel(4)
        parallel = CampaignSession(parallel_config).run("minife").dataset
        _assert_bit_identical(serial, parallel)

    def test_thread_pool_matches_serial(self):
        serial = CampaignSession(CampaignConfig.smoke()).run().dataset
        parallel = CampaignSession(
            CampaignConfig.smoke().parallel(4), executor_mode="thread"
        ).run().dataset
        _assert_bit_identical(serial, parallel)

    @pytest.mark.parametrize("application", ["minimd", "miniqmc"])
    def test_other_applications_parallel_match_serial(self, application):
        config = CampaignConfig.smoke(application=application)
        serial = CampaignSession(config).run().dataset
        parallel = CampaignSession(config.parallel(2)).run().dataset
        _assert_bit_identical(serial, parallel)

    def test_event_backend_parallel_matches_serial(self):
        config = dataclasses.replace(
            CampaignConfig.smoke().with_backend("event"),
            trials=2,
            processes=2,
            iterations=4,
            threads=8,
        )
        serial = CampaignSession(config).run().dataset
        parallel = CampaignSession(config.parallel(2)).run().dataset
        _assert_bit_identical(serial, parallel)

    def test_parallel_stream_matches_serial_stream(self):
        config = CampaignConfig.smoke().with_backend("vectorized")
        serial_shards = list(CampaignSession(config).stream())
        parallel_shards = list(CampaignSession(config.parallel(4)).stream())
        assert [s.sort_key for s in serial_shards] == [
            s.sort_key for s in parallel_shards
        ]
        for a, b in zip(serial_shards, parallel_shards):
            for name in a.columns:
                np.testing.assert_array_equal(
                    np.asarray(a.columns[name]), np.asarray(b.columns[name])
                )


class TestShardExecutor:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ShardExecutor(0)
        with pytest.raises(ValueError):
            ShardExecutor(2, mode="fiber")

    def test_worker_count_capped_by_shard_count(self):
        config = CampaignConfig.smoke()  # 1 trial x 2 processes = 2 shards
        executor = ShardExecutor(16)
        backend = get_backend(config.backend)
        assert executor._resolve_workers(config, len(backend.shard_specs(config))) == 2

    def test_executor_defers_to_config_max_workers(self):
        config = CampaignConfig.smoke().parallel(3).scaled(trials=2, processes=2)
        assert ShardExecutor()._resolve_workers(config, 4) == 3

    def test_merged_pool_shards_match_backend_run(self):
        config = CampaignConfig.smoke()
        backend = get_backend(config.backend)
        merged = TimingDataset.merge(
            ShardExecutor(2).iter_shards(backend, config),
            metadata=backend.metadata(config),
        )
        _assert_bit_identical(merged, backend.run(config))
        assert merged.metadata == backend.run(config).metadata
