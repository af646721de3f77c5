"""Parallel sharded execution must be bit-identical to serial execution."""

import dataclasses
import multiprocessing
import os
from pathlib import Path

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
    """Record the worker count of every pool ``make_pool`` builds: the CLI's
    one pool per run, and the per-call pool of an executor without one."""
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

    def test_an_executor_with_a_pool_builds_none(self, monkeypatch):
        config = CampaignConfig.smoke().parallel(2)
        want = _run_blocks(config)
        sizes = _pool_sizes(monkeypatch)
        pool = executor_module.make_pool("thread", 2)
        try:
            executor = ShardExecutor(mode="thread", pool=pool)
            backend = get_backend(config.backend)
            # two calls on one pool: the pool outlives each of them
            for _ in range(2):
                got = list(executor.iter_blocks(backend, config))
                assert [b.slices for b in got] == [b.slices for b in want]
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a.cube, b.cube)
        finally:
            pool.shutdown()
        assert sizes == [2]  # the caller's own pool, nothing per call

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


def _outputs(root: Path) -> dict:
    """Every file a CLI run wrote, except its cache."""
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.relative_to(root).parts[0] != "cache"
    }


def _debris(root: Path) -> list:
    return sorted(
        str(path.relative_to(root))
        for path in root.rglob("*")
        if path.name.endswith(".payload") or ".tmp-" in path.name
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
class TestOnePoolPerRun:
    """A pooled CLI run opens one worker pool for all its applications and
    shuts it down before ``main`` returns; out of core, each application's
    analyses run on that pool while the next application samples."""

    @pytest.mark.parametrize(
        "extra",
        [["--out-of-core"], [], ["--analyses", "all"]],
        ids=["out-of-core", "in-memory", "analyses"],
    )
    def test_a_pooled_run_opens_exactly_one_pool(
        self, extra, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments.runner import main

        sizes = _pool_sizes(monkeypatch)
        argv = ["--scale", "smoke", "--max-workers", "2", *extra]
        assert main([*argv, "--output", str(tmp_path)]) == 0
        capsys.readouterr()
        assert sizes == [2]
        assert multiprocessing.active_children() == []

    def test_a_serial_run_opens_no_pool(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.runner import main

        sizes = _pool_sizes(monkeypatch)
        argv = ["--scale", "smoke", "--out-of-core", "--output", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert sizes == []

    def test_out_of_core_outputs_equal_serial_at_benchmark_scale(
        self, tmp_path, capsys
    ):
        """All three applications at benchmark scale (38,400 samples each,
        above the 5,000-sample selection threshold) write the same files
        pipelined on the pool as serially in memory."""
        from repro.experiments.runner import main

        common = ["--scale", "benchmark", "--backend", "campaign"]
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main([*common, "--output", str(serial)]) == 0
        assert (
            main(
                [*common, "--out-of-core", "--spill-mb", "0.25", "--max-workers", "2",
                 "--output", str(pooled)]
            )
            == 0
        )
        capsys.readouterr()
        expected = _outputs(serial)
        assert Path("figures/figure9_miniqmc.csv") in expected
        assert _outputs(pooled) == expected
        assert len(list((pooled / "cache").glob("shards_*.store"))) == 3

    def test_a_cache_budget_evicts_no_store_under_its_analysis(
        self, tmp_path, monkeypatch, capsys
    ):
        """Under a cache budget the next application's store evicts the
        previous one, so the previous analysis task must be done first."""
        from repro.experiments.runner import main
        from repro.io.cache_tier import PRODUCTS_DIR, CacheTier

        remove = CacheTier._remove
        evicted = []

        def recording(tier, path):
            if path.name.endswith(".store"):
                application = path.name.split("_")[1]
                products = tier.root / PRODUCTS_DIR
                evicted.append(
                    (application, len(list(products.glob(f"analysis_{application}_*"))))
                )
            remove(tier, path)

        monkeypatch.setattr(CacheTier, "_remove", recording)
        pooled, serial = tmp_path / "pooled", tmp_path / "serial"
        argv = ["--scale", "smoke", "--out-of-core", "--max-workers", "2"]
        assert main([*argv, "--cache-max-mb", "0.001", "--output", str(pooled)]) == 0
        assert main(["--scale", "smoke", "--output", str(serial)]) == 0
        capsys.readouterr()
        # each evicted store's six analysis products were written first
        assert evicted == [("minife", 6), ("minimd", 6)]
        assert _outputs(pooled) == _outputs(serial)

    def test_a_failing_analysis_task_fails_the_run_and_leaves_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments.runner import main

        parent = os.getpid()
        analyze = CampaignSession.analyze

        def failing_analyze(session, application=None, **kwargs):
            if application == "minimd":
                raise RuntimeError(f"analysis failed in process {os.getpid()}")
            return analyze(session, application, **kwargs)

        monkeypatch.setattr(CampaignSession, "analyze", failing_analyze)
        shm_before = _shm_entries()
        argv = ["--scale", "smoke", "--out-of-core", "--max-workers", "2"]
        with pytest.raises(RuntimeError, match="analysis failed in process") as error:
            main([*argv, "--output", str(tmp_path)])
        capsys.readouterr()
        # the task ran in a pool worker, not in the parent
        assert error.value.args[0].split()[-1] != str(parent)
        assert multiprocessing.active_children() == []
        assert _debris(tmp_path) == []
        assert _shm_entries() - shm_before == set()


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - tmpfs-less platforms
        return set()
