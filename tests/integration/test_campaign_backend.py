"""The whole-campaign tensor backend end-to-end.

The campaign backend samples *all* (trial, process) shards as
``(n_shards, n_iterations, n_threads)`` tensors — one schedule fold, one
draw per noise source, one columnar assembly per shard chunk.  Its
randomness is ordered shard-major across the whole campaign, so it is not
bit-identical to the per-iteration reference sampler (``"vectorized"``,
``tests/oracles/vectorized.py``); it pins its own reference digests
(``tests/digests.py``; distributional agreement with the reference is
property-tested in ``tests/property/test_prop_campaign.py``).  What this
module pins exactly:

* same seed → same arrays, for every ``chunk_shards`` value (the
  purpose-split draw streams make chunked consumption a contiguous
  continuation, so chunking can never move a digest);
* a scenario sweep runs every entry solo → bit-identical to each
  scenario's own session run;
* chunk-parallel execution (``max_workers > 1`` folds whole shard chunks
  on a worker pool, returning columns through shared memory) → bit-identical
  to serial for every worker count × chunk size, in memory and spilled to
  a :class:`~repro.io.shard_store.ShardStore`;
* a worker that dies mid-fold surfaces as a clear ``RuntimeError`` (never a
  hang) and leaks no shared-memory segments.
"""

import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from digests import CAMPAIGN_SMOKE_DIGESTS
from repro.apps.minife import MiniFEConfig
from repro.experiments.backends import (
    CampaignTensorBackend,
    available_backends,
    get_backend,
)
from repro.experiments.config import CampaignConfig
from repro.experiments import executor as executor_module
from repro.experiments.executor import ShardExecutor
from repro.experiments.session import CampaignSession
from repro.scenarios import get_scenario
from repro.scenarios.scenario import ScenarioMatrix

# The smoke recipe of CAMPAIGN_SMOKE_DIGESTS (tests/digests.py) under
# explicit work-queue schedule clauses (MiniFE is the app whose 200-pencil
# loop makes the clause matter); re-recorded with the shard-keyed streams.
# The "dynamic,4" entry doubles as the digest of the ``manzano-campaign``
# scenario at smoke scale.
CAMPAIGN_SCHEDULE_SMOKE_DIGESTS = {
    ("minife", "dynamic"): "72af0d3efc013179108eb566e8d875bfbc1d124e0dcb2bc673fe896fa1733ff0",
    ("minife", "dynamic,4"): "2af151e1a05561807064884cd19332f17de63b4c733fbed90525856cd231d552",
    ("minife", "guided"): "6247d45687080ced6825e53e91189a0131d685e602bfae911a6b83dfbede864b",
    # one loop item per thread: both clauses give the same bits, but they
    # reach them through the chunked-static and the work-queue 3-D folds
    ("minimd", "static,4"): "a1dfb454951fba6b370d7bcc94074945e14c0d37a9026a9d4055fc826d02ee2e",
    ("minimd", "dynamic,4"): "a1dfb454951fba6b370d7bcc94074945e14c0d37a9026a9d4055fc826d02ee2e",
    ("miniqmc", "static,4"): "46851b348a32bc3c7a50e6dd4e6f32af22b5a0fe2409c147e3440a602bfea489",
    ("miniqmc", "dynamic,4"): "46851b348a32bc3c7a50e6dd4e6f32af22b5a0fe2409c147e3440a602bfea489",
}

APPLICATIONS = sorted(CAMPAIGN_SMOKE_DIGESTS)


def _digest(dataset) -> str:
    blob = np.ascontiguousarray(dataset.compute_times_s, dtype=np.float64).tobytes()
    return hashlib.sha256(blob).hexdigest()


def _smoke(application: str, **overrides) -> CampaignConfig:
    config = CampaignConfig.smoke(application).with_backend("campaign")
    if overrides:
        import dataclasses

        config = dataclasses.replace(config, **overrides)
    return config


class TestRegistration:
    def test_campaign_backend_is_registered(self):
        assert "campaign" in available_backends()
        backend = get_backend("campaign")
        assert backend.name == "campaign"
        # its unit of pooled work is a shard chunk, not a shard
        config = _smoke("minife", trials=3)
        assert backend.work_units(config, 2) == [
            [(0, 0), (0, 1), (1, 0)],
            [(1, 1), (2, 0), (2, 1)],
        ]
        vectorized = get_backend("vectorized")
        assert vectorized.work_units(config, 2) == vectorized.shard_specs(config)
        assert backend.chunk_shards == CampaignTensorBackend.DEFAULT_CHUNK_SHARDS

    def test_metadata_carries_backend_label(self):
        meta = get_backend("campaign").metadata(_smoke("minife"))
        assert meta["backend"] == "campaign"

    def test_chunk_shards_must_be_positive(self):
        with pytest.raises(ValueError):
            CampaignTensorBackend(chunk_shards=0)


class TestPinnedDigests:
    @pytest.mark.parametrize("application", APPLICATIONS)
    def test_campaign_matches_recorded_digest(self, application):
        dataset = CampaignSession(_smoke(application)).run().dataset
        assert _digest(dataset) == CAMPAIGN_SMOKE_DIGESTS[application]

    @pytest.mark.parametrize(
        "application, schedule", sorted(CAMPAIGN_SCHEDULE_SMOKE_DIGESTS)
    )
    def test_campaign_workqueue_matches_recorded_digest(self, application, schedule):
        config = _smoke(application, schedule=schedule)
        dataset = CampaignSession(config).run().dataset
        assert _digest(dataset) == CAMPAIGN_SCHEDULE_SMOKE_DIGESTS[
            (application, schedule)
        ]

    @pytest.mark.parametrize("application", ["minimd", "miniqmc"])
    @pytest.mark.parametrize("schedule", ["dynamic", "guided"])
    def test_one_item_per_thread_apps_are_schedule_invariant(
        self, application, schedule
    ):
        # one loop item per thread: the work-queue hand-out is thread k gets
        # chunk k, identical to static, so the digest must not move
        dataset = CampaignSession(_smoke(application, schedule=schedule)).run().dataset
        assert _digest(dataset) == CAMPAIGN_SMOKE_DIGESTS[application]

    @pytest.mark.parametrize("application", APPLICATIONS)
    def test_campaign_shape_matches_vectorized(self, application):
        campaign = CampaignSession(_smoke(application)).run().dataset
        reference = CampaignConfig.smoke(application).with_backend("vectorized")
        vectorized = CampaignSession(reference).run().dataset
        assert campaign.n_samples == vectorized.n_samples
        assert campaign.is_dense()
        for column in ("trial", "process", "iteration", "thread"):
            assert np.array_equal(campaign.column(column), vectorized.column(column))

    def test_scenario_pins_the_campaign_backend(self):
        scenario = get_scenario("manzano-campaign")
        assert scenario.backend == "campaign"
        assert scenario.schedule == "dynamic,4"
        dataset = scenario.session(scale="smoke").run().dataset
        assert _digest(dataset) == CAMPAIGN_SCHEDULE_SMOKE_DIGESTS[
            ("minife", "dynamic,4")
        ]


class TestChunkInvariance:
    @pytest.mark.parametrize("application", APPLICATIONS)
    @pytest.mark.parametrize("chunk_shards", [1, 2, 3, 8])
    def test_chunked_run_is_bit_identical(
        self, executor_dataset, application, chunk_shards
    ):
        config = _smoke(application)
        whole = executor_dataset(get_backend("campaign"), config)
        chunked = executor_dataset(
            CampaignTensorBackend(chunk_shards=chunk_shards), config
        )
        for name in whole.columns:
            assert np.array_equal(whole.column(name), chunked.column(name)), name

    @pytest.mark.parametrize("chunk_shards", [1, 3])
    def test_chunked_workqueue_run_is_bit_identical(
        self, executor_dataset, chunk_shards
    ):
        config = _smoke("minife", schedule="dynamic,4")
        whole = executor_dataset(get_backend("campaign"), config)
        chunked = executor_dataset(
            CampaignTensorBackend(chunk_shards=chunk_shards), config
        )
        assert np.array_equal(whole.compute_times_s, chunked.compute_times_s)

    def test_fast_run_matches_streamed_shards(self):
        # run() keeps the chunk blocks; stream() slices them into
        # per-(trial, process) shards — same rows either way
        from repro.core.timing import TimingDataset

        config = _smoke("miniqmc")
        fast = CampaignSession(config).run(use_cache=False).dataset
        merged = TimingDataset.merge(
            CampaignSession(config).stream(),
            metadata=get_backend("campaign").metadata(config),
        )
        for name in fast.columns:
            assert np.array_equal(fast.column(name), merged.column(name)), name
        assert fast.metadata == merged.metadata


class TestUnitsArePure:
    """A unit's block is a pure function of (config, unit): producing it
    again in the same thread — where ``campaign`` reuses the thread's
    cached context — gives the same samples."""

    @pytest.mark.parametrize("application", APPLICATIONS)
    @pytest.mark.parametrize("backend_name", ["vectorized", "event", "campaign"])
    def test_unit_block_twice_in_one_thread_is_identical(
        self, backend_name, application
    ):
        config = CampaignConfig.smoke(application).with_backend(backend_name)
        backend = get_backend(backend_name)
        for unit in backend.work_units(config, 2):
            first = backend.unit_block(config, unit)
            second = backend.unit_block(config, unit)
            assert np.array_equal(first.cube, second.cube), unit
            assert first.slices == second.slices, unit

    def test_serial_miniqmc_runs_in_one_thread_are_identical(self):
        # both serial runs fold their chunks in this thread, the second
        # through the context the first one left cached
        config = _smoke("miniqmc", trials=2)
        first = CampaignSession(config).run(use_cache=False).dataset
        second = CampaignSession(config).run(use_cache=False).dataset
        assert _digest(first) == _digest(second)
        for name in first.columns:
            assert np.array_equal(first.column(name), second.column(name)), name

    def test_a_config_changed_in_place_gets_a_fresh_context(self):
        quiet = _smoke("minimd")
        quiet.machine = quiet.machine.without_noise()
        expected = CampaignSession(quiet).run(use_cache=False).dataset
        config = _smoke("minimd")
        noisy = CampaignSession(config).run(use_cache=False).dataset
        config.machine = config.machine.without_noise()
        changed = CampaignSession(config).run(use_cache=False).dataset
        assert _digest(noisy) != _digest(expected)
        assert _digest(changed) == _digest(expected)


_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - tmpfs-less platforms
        return set()


class TestParallelExecution:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("max_workers", [2, 4])
    def test_executor_chunk_parallel_is_bit_identical(self, max_workers, mode):
        # the executor's pool folds whole shard chunks, bit-identically to
        # the serial run
        serial = CampaignSession(_smoke("minife", trials=3)).run().dataset
        parallel = CampaignSession(
            _smoke("minife", trials=3, max_workers=max_workers),
            executor_mode=mode,
        ).run(use_cache=False).dataset
        assert np.array_equal(serial.compute_times_s, parallel.compute_times_s)

    def test_executor_routes_through_the_chunk_parallel_path(self, monkeypatch):
        calls = []
        original = executor_module.map_pooled

        def counting(tasks, workers, mode, **kwargs):
            calls.append(kwargs.get("pool"))
            return original(tasks, workers, mode, **kwargs)

        monkeypatch.setattr(executor_module, "map_pooled", counting)
        blocks = list(ShardExecutor(mode="thread").iter_blocks(
            get_backend("campaign"), _smoke("minife", trials=3, max_workers=4)
        ))
        # one pooled call, which builds its own pool
        assert calls == [None]
        # 6 shards on 4 workers: chunks of 2 shards
        assert [len(block.slices) for block in blocks] == [2, 2, 2]

        # an executor given a pool routes every call through that pool
        pool = executor_module.make_pool("thread", 4)
        try:
            executor = ShardExecutor(mode="thread", pool=pool)
            for _ in range(2):
                shared = list(executor.iter_blocks(
                    get_backend("campaign"), _smoke("minife", trials=3, max_workers=4)
                ))
                assert [b.slices for b in shared] == [b.slices for b in blocks]
        finally:
            pool.shutdown()
        assert calls == [None, pool, pool]

    def test_executor_streams_per_process_shards(self):
        config = _smoke("minimd", max_workers=4)
        blocks = ShardExecutor(mode="thread").iter_blocks(
            get_backend("campaign"), config
        )
        assert [(sl.trial, sl.process) for b in blocks for sl in b.slices] == [
            (0, 0), (0, 1)
        ]


class TestParallelBitIdentity:
    """The acceptance matrix: workers x chunk_shards, in memory and spilled
    to a store — every cell bit-identical to the plain serial run."""

    @pytest.mark.parametrize("chunk_shards", [1, 3, 8])
    @pytest.mark.parametrize("max_workers", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_solo_run_matrix(self, executor_dataset, max_workers, chunk_shards, mode):
        if mode == "process" and not _HAS_FORK:
            pytest.skip("needs the fork start method")
        serial = executor_dataset(get_backend("campaign"), _smoke("minife", trials=3))
        backend = CampaignTensorBackend(chunk_shards=chunk_shards)
        parallel = executor_dataset(
            backend, _smoke("minife", trials=3, max_workers=max_workers), mode
        )
        for name in serial.columns:
            assert np.array_equal(serial.column(name), parallel.column(name)), name

    @pytest.mark.parametrize("application", APPLICATIONS)
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_every_app_is_bit_identical_on_an_uneven_pool(self, application, mode):
        # 8 shards over 3 workers: chunks of 3, 3 and 2 shards, so a chunk
        # boundary splits a trial; per-shard app state (MiniQMC's walker
        # populations) must not leak across it
        if mode == "process" and not _HAS_FORK:
            pytest.skip("needs the fork start method")
        serial = CampaignSession(_smoke(application, trials=4)).run().dataset
        parallel = CampaignSession(
            _smoke(application, trials=4, max_workers=3), executor_mode=mode
        ).run(use_cache=False).dataset
        for name in serial.columns:
            assert np.array_equal(serial.column(name), parallel.column(name)), name

    @pytest.mark.parametrize("application", APPLICATIONS)
    def test_parallel_stream_merges_to_the_serial_run(self, application):
        from repro.core.timing import TimingDataset

        serial = CampaignSession(_smoke(application, trials=3)).run().dataset
        config = _smoke(application, trials=3, max_workers=2)
        streamed = list(CampaignSession(config, executor_mode="thread").stream())
        assert [sl.sort_key for block in streamed for sl in block.slices] == [
            (trial, process) for trial in range(3) for process in range(2)
        ]
        merged = TimingDataset.merge(streamed)
        for name in serial.columns:
            assert np.array_equal(serial.column(name), merged.column(name)), name

    @pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
    @pytest.mark.parametrize("chunk_shards", [1, 3, 8])
    @pytest.mark.parametrize("max_workers", [1, 2, 4])
    def test_store_spill_matrix(self, tmp_path, max_workers, chunk_shards):
        # process workers spill their chunks straight into the store's
        # on-disk group format; the filled store and the finalized store
        # must both match the serial run
        from repro.core.timing import TimingDataset
        from repro.io.shard_store import ShardStore

        serial = CampaignSession(_smoke("minife", trials=3)).run().dataset
        backend = CampaignTensorBackend(chunk_shards=chunk_shards)
        store = ShardStore(tmp_path / "store", mode="w", spill_threshold_bytes=1)
        ShardExecutor(mode="process").run_to_store(
            backend, _smoke("minife", trials=3, max_workers=max_workers), store
        )
        live = TimingDataset.merge(store.iter_column_blocks())
        assert np.array_equal(serial.compute_times_s, live.compute_times_s)
        store.finalize()
        reread = TimingDataset.merge(
            ShardStore(tmp_path / "store", mode="r").iter_column_blocks()
        )
        assert np.array_equal(serial.compute_times_s, reread.compute_times_s)


def _pooled_smoke(backend_name: str) -> CampaignConfig:
    """Smoke MiniFE on 2 process workers: 6 trials x 2 processes, so the
    pool has undelivered units when a consumer stops early."""
    return CampaignConfig.smoke("minife").with_backend(backend_name).scaled(
        trials=6
    ).parallel(2)


@pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
@pytest.mark.parametrize("backend_name", ["campaign", "vectorized"])
class TestWorkerCrash:
    def test_dead_worker_raises_and_leaks_no_shared_memory(
        self, monkeypatch, backend_name
    ):
        # a worker killed mid-unit must surface as a RuntimeError (not a
        # hang) and leave /dev/shm untouched — segments are only created
        # after a unit's block is built
        backend = get_backend(backend_name)

        def die_mid_unit(self, config, unit):
            os._exit(1)

        monkeypatch.setattr(type(backend), "unit_block", die_mid_unit)
        before = _shm_entries()
        with pytest.raises(RuntimeError, match="worker died"):
            CampaignSession(_pooled_smoke(backend_name)).run(use_cache=False)
        assert _shm_entries() - before == set()


@pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
@pytest.mark.parametrize("backend_name", ["campaign", "vectorized"])
class TestEarlyClose:
    """A consumer that stops after the first unit leaves no undelivered
    shared-memory segment and no orphaned spill payload behind."""

    def test_closing_iter_blocks_after_the_first_block(self, backend_name):
        before = _shm_entries()
        blocks = ShardExecutor(mode="process").iter_blocks(
            get_backend(backend_name), _pooled_smoke(backend_name)
        )
        next(blocks)
        blocks.close()
        assert _shm_entries() - before == set()

    def test_closing_one_stream_leaves_the_shared_pool_running(self, backend_name):
        """On a shared pool, closing one stream cancels and discards only
        that stream's units: other work on the pool runs on, and the pool
        serves the next stream."""
        backend = get_backend(backend_name)
        config = _pooled_smoke(backend_name)
        want = [b.slices for b in ShardExecutor().iter_blocks(backend, config)]
        before = _shm_entries()
        pool = executor_module.make_pool("process", 2)
        try:
            executor = ShardExecutor(pool=pool)
            blocks = executor.iter_blocks(backend, config)
            next(blocks)
            other = pool.submit(sum, range(10))
            blocks.close()
            assert other.result() == 45
            assert [b.slices for b in executor.iter_blocks(backend, config)] == want
        finally:
            pool.shutdown()
        assert _shm_entries() - before == set()

    def test_abandoning_a_store_fill_after_the_first_unit(
        self, tmp_path, monkeypatch, backend_name
    ):
        from repro.io.shard_store import ShardStore

        class Abandoned(Exception):
            pass

        adopt_group = ShardStore.adopt_group

        def adopt_then_abandon(self, payload, entry):
            adopt_group(self, payload, entry)
            raise Abandoned

        monkeypatch.setattr(ShardStore, "adopt_group", adopt_then_abandon)
        store = ShardStore(tmp_path / "store", mode="w")
        before = _shm_entries()
        with pytest.raises(Abandoned):
            ShardExecutor(mode="process").run_to_store(
                get_backend(backend_name), _pooled_smoke(backend_name), store
            )
        assert _shm_entries() - before == set()
        assert store.n_groups == 1
        assert list((tmp_path / "store").glob("*.payload")) == []


@pytest.mark.parametrize("mode", ["process", "thread"])
@pytest.mark.parametrize("backend_name", ["campaign", "vectorized"])
def test_failed_adoption_removes_the_delivered_payload(
    tmp_path, monkeypatch, backend_name, mode
):
    # a store that cannot adopt a delivered spill payload (a full disk
    # while it flushes) must not keep that payload next to its groups
    import errno

    if mode == "process" and not _HAS_FORK:
        pytest.skip("needs the fork start method")

    from repro.io.shard_store import ShardStore

    def adopt_on_a_full_disk(self, payload, entry):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(ShardStore, "adopt_group", adopt_on_a_full_disk)
    store = ShardStore(tmp_path / "store", mode="w")
    before = _shm_entries()
    with pytest.raises(OSError) as raised:
        ShardExecutor(mode=mode).run_to_store(
            get_backend(backend_name), _pooled_smoke(backend_name), store
        )
    assert raised.value.errno == errno.ENOSPC
    assert list((tmp_path / "store").glob("*.payload")) == []
    assert _shm_entries() - before == set()


class TestScenarioSweep:
    def test_scenario_matrix_runs_every_entry_solo(self, campaign_folds):
        # every entry runs its own session: MiniFE's campaign hook
        # broadcasts one cached busy row, so no whole-campaign schedule
        # fold runs (each fold is one (1, 1, n_pencils) row: the
        # calibration or the busy row), and each dataset is the solo
        # run's, bit for bit
        matrix = ScenarioMatrix(applications=("minife",), noises=(None, "heavy-tail"))
        results = matrix.run(scale="smoke", backend="campaign")
        pencils = MiniFEConfig().ny * MiniFEConfig().nz
        assert campaign_folds
        assert {shape for _, shape in campaign_folds} == {(1, 1, pencils)}
        assert list(results) == [scenario.name for scenario in matrix]
        for scenario in matrix:
            solo = scenario.session(scale="smoke", backend="campaign").run()
            for name in solo.dataset.columns:
                assert np.array_equal(
                    results[scenario.name].dataset.column(name),
                    solo.dataset.column(name),
                ), name

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_scenario_matrix_pools_each_entry(self, mode):
        if mode == "process" and not _HAS_FORK:
            pytest.skip("needs the fork start method")
        matrix = ScenarioMatrix(applications=("minimd",), noises=(None, "storm"))
        serial = matrix.run(scale="smoke", backend="campaign", trials=2)
        pooled = matrix.run(
            scale="smoke",
            backend="campaign",
            trials=2,
            max_workers=2,
            executor_mode=mode,
        )
        for name, result in serial.items():
            for column in result.dataset.columns:
                assert np.array_equal(
                    pooled[name].dataset.column(column), result.dataset.column(column)
                ), (name, column)

    def test_scenario_matrix_results_hit_the_cache(self, tmp_path):
        matrix = ScenarioMatrix(applications=("minife",), noises=(None, "none"))
        first = matrix.run(scale="smoke", backend="campaign", cache_dir=tmp_path)
        assert not any(result.from_cache for result in first.values())
        second = matrix.run(scale="smoke", backend="campaign", cache_dir=tmp_path)
        assert all(result.from_cache for result in second.values())
        fresh = matrix.run(
            scale="smoke", backend="campaign", cache_dir=tmp_path, use_cache=False
        )
        assert not any(result.from_cache for result in fresh.values())
        for name in first:
            assert np.array_equal(
                first[name].dataset.compute_times_s,
                second[name].dataset.compute_times_s,
            )
