"""Parallel sharded execution must be bit-identical to serial execution."""

import dataclasses

import numpy as np
import pytest

from repro.core.timing import TimingDataset
from repro.experiments.backends import get_backend
from repro.experiments.config import CampaignConfig
from repro.experiments import executor as executor_module
from repro.experiments.executor import ShardExecutor
from repro.experiments.session import CampaignSession
from shards import shards_of


def _assert_bit_identical(a, b):
    assert set(a.columns) == set(b.columns)
    for name in sorted(a.columns):
        np.testing.assert_array_equal(
            a.column(name), b.column(name), err_msg=f"column {name!r} differs"
        )


class TestParallelBitIdentical:
    def test_vectorized_parallel_matches_serial(self):
        """The per-iteration reference sampler pools bit-identically too:
        smoke minife, 4 process workers."""
        config = CampaignConfig.smoke().with_backend("vectorized")
        serial = CampaignSession(config).run("minife").dataset
        parallel_config = config.parallel(4)
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

    def test_event_oracle_cli_writes_the_same_outputs_pooled(self, tmp_path):
        """The executor pools the event reference's per-trial units like any
        backend's: a two-trial smoke CLI run writes the same files serially
        and on two process workers."""
        from repro.experiments.runner import main

        outputs = []
        for extra in ([], ["--max-workers", "2"]):
            out = tmp_path / f"run{len(outputs)}"
            argv = ["--scale", "smoke", "--backend", "event", "--trials", "2"]
            assert main([*argv, "--output", str(out), *extra]) == 0
            outputs.append(
                {
                    path.relative_to(out): path.read_bytes()
                    for path in sorted(out.rglob("*"))
                    if path.is_file() and "cache" not in path.relative_to(out).parts
                }
            )
        assert outputs[0] and outputs[0] == outputs[1]

    def test_parallel_stream_matches_serial_stream(self):
        config = CampaignConfig.smoke().with_backend("vectorized")
        serial_shards = shards_of(CampaignSession(config).stream())
        parallel_shards = shards_of(CampaignSession(config.parallel(4)).stream())
        assert [s.slices for s in serial_shards] == [s.slices for s in parallel_shards]
        for a, b in zip(serial_shards, parallel_shards):
            for name, values in a.columns.items():
                np.testing.assert_array_equal(values, b.columns[name])


def _pool_sizes(monkeypatch):
    """Record the worker count of every pool the executor builds."""
    sizes = []
    make_pool = executor_module.make_pool

    def recording(mode, workers):
        sizes.append(workers)
        return make_pool(mode, workers)

    monkeypatch.setattr(executor_module, "make_pool", recording)
    return sizes


def _run_blocks(config, mode="thread"):
    backend = get_backend(config.backend)
    return list(ShardExecutor(mode=mode).iter_blocks(backend, config))


class TestShardExecutor:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig.smoke().parallel(0)
        with pytest.raises(ValueError):
            ShardExecutor(mode="fiber")

    def test_worker_count_capped_by_unit_count(self, monkeypatch):
        sizes = _pool_sizes(monkeypatch)
        _run_blocks(CampaignConfig.smoke().parallel(16))  # 1 trial x 2 processes
        assert sizes == [2]

    def test_worker_count_comes_from_the_config(self, monkeypatch):
        # a per-shard backend: four units of work for the three workers
        sizes = _pool_sizes(monkeypatch)
        config = CampaignConfig.smoke().with_backend("vectorized")
        _run_blocks(config.parallel(3).scaled(trials=2, processes=2))
        assert sizes == [3]

    def test_merged_pool_blocks_match_the_serial_run(self):
        config = CampaignConfig.smoke().parallel(2)
        backend = get_backend(config.backend)
        merged = TimingDataset.merge(
            _run_blocks(config, mode="process"), metadata=backend.metadata(config)
        )
        serial = CampaignSession(CampaignConfig.smoke()).run(use_cache=False).dataset
        _assert_bit_identical(merged, serial)
        assert merged.metadata == serial.metadata


class TestSharedMemoryTransport:
    """A process worker ships its unit's block through one shared-memory
    segment, which the parent copies out of and unlinks."""

    @pytest.mark.parametrize("backend_name", ["campaign", "event"])
    def test_block_round_trips_and_unlinks_its_segment(self, backend_name):
        from multiprocessing import shared_memory

        config = CampaignConfig.smoke().with_backend(backend_name)
        backend = get_backend(backend_name)
        block = backend.unit_block(config, backend.work_units(config, 1)[0])
        segment_name, skeleton = executor_module.pack_block(block)
        assert skeleton.cube.size == 0  # only the cube crosses the boundary
        unpacked = executor_module.unpack_block(segment_name, skeleton)
        assert unpacked.slices == block.slices
        np.testing.assert_array_equal(unpacked.iterations, block.iterations)
        np.testing.assert_array_equal(unpacked.threads, block.threads)
        columns = block.columns
        assert list(unpacked.columns) == list(columns)
        for name, array in columns.items():
            assert unpacked.columns[name].dtype == array.dtype, name
            np.testing.assert_array_equal(unpacked.columns[name], array)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment_name)
        executor_module.discard_shm(segment_name)  # already gone: a no-op
