"""The whole-campaign tensor backend end-to-end.

The campaign backend samples *all* (trial, process) shards as
``(n_shards, n_iterations, n_threads)`` tensors — one schedule fold, one
draw per noise source, one columnar assembly per shard chunk.  Its
randomness is ordered shard-major across the whole campaign, so it is not
bit-identical to ``"vectorized"``; it pins its own
reference digests here (distributional agreement with the vectorized path
is property-tested in ``tests/property/test_prop_campaign.py``).  What this
module pins exactly:

* same seed → same arrays, for every ``chunk_shards`` value (the
  purpose-split draw streams make chunked consumption a contiguous
  continuation, so chunking can never move a digest);
* grouped execution (``run_many``, the scenario-matrix sharing path, the
  service's job grouping) → bit-identical to solo runs;
* chunk-parallel execution (``max_workers > 1`` folds whole shard chunks
  on a worker pool, returning columns through shared memory) → bit-identical
  to serial for every worker count × chunk size, solo and grouped, in
  memory and spilled to a :class:`~repro.io.shard_store.ShardStore`;
* a worker that dies mid-fold surfaces as a clear ``RuntimeError`` (never a
  hang) and leaks no shared-memory segments.
"""

import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.instrument import RegionInstrumenter
from repro.experiments.backends import (
    CampaignTensorBackend,
    available_backends,
    campaign_group_key,
    get_backend,
)
from repro.experiments.config import CampaignConfig
from repro.experiments.executor import ShardExecutor
from repro.experiments.session import CampaignSession
from repro.scenarios import get_scenario
from repro.scenarios.scenario import ScenarioMatrix

# sha256 of the dense compute_times_s array of CampaignConfig.smoke(app)
# (seed 7, 1 trial x 2 processes x 12 iterations x 16 threads) on the
# campaign backend.  Re-recorded ONCE when draw streams moved from
# contiguous continuation to absolute shard keying (the change that makes
# chunk-parallel execution bit-identical at any worker count): every
# shard-varying draw now sits under its ("shard", trial, process) scope,
# which restructured the whole-tensor jitter/noise/straggler draws into
# per-shard draws.  Serial == parallel == any chunk_shards from here on, so
# these digests are stable against any future chunking/worker change.
CAMPAIGN_SMOKE_DIGESTS = {
    "minife": "e00daed36dd885b6da7460460091db6425d155af7791046d27c19d1e14e584f2",
    "minimd": "6600a86f66463499c72829eb7b89ebdea5942f73199c651fe8a9c39c08de7cfb",
    "miniqmc": "51581b1ada86e420bc79754122affab8dbcb824980e8040807abd701e3724491",
}

# Same smoke recipe under explicit work-queue schedule clauses (MiniFE is
# the app whose 200-pencil loop makes the clause matter); re-recorded with
# the shard-keyed streams above.  The "dynamic,4" entry doubles as the
# digest of the ``manzano-campaign-batched`` scenario at smoke scale.
CAMPAIGN_SCHEDULE_SMOKE_DIGESTS = {
    ("minife", "dynamic"): "72af0d3efc013179108eb566e8d875bfbc1d124e0dcb2bc673fe896fa1733ff0",
    ("minife", "dynamic,4"): "2af151e1a05561807064884cd19332f17de63b4c733fbed90525856cd231d552",
    ("minife", "guided"): "6247d45687080ced6825e53e91189a0131d685e602bfae911a6b83dfbede864b",
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
        # its unit of work is a shard chunk: the executor hands parallel
        # runs to iter_shards_parallel instead of fanning shards out
        assert callable(getattr(backend, "iter_shards_parallel", None))
        assert not hasattr(get_backend("vectorized"), "iter_shards_parallel")
        assert backend.chunk_shards == CampaignTensorBackend.DEFAULT_CHUNK_SHARDS

    def test_metadata_carries_backend_label(self):
        meta = get_backend("campaign").metadata(_smoke("minife"))
        assert meta["backend"] == "campaign"

    def test_chunk_shards_must_be_positive(self):
        with pytest.raises(ValueError):
            CampaignTensorBackend(chunk_shards=0)

    def test_run_shard_is_not_a_unit_of_work(self):
        backend = get_backend("campaign")
        config = _smoke("minife")
        spec = backend.shard_specs(config)[0]
        with pytest.raises(NotImplementedError):
            backend.run_shard(config, spec, None)


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
        vectorized = CampaignSession(CampaignConfig.smoke(application)).run().dataset
        assert campaign.n_samples == vectorized.n_samples
        assert campaign.is_dense()
        for column in ("trial", "process", "iteration", "thread"):
            assert np.array_equal(campaign.column(column), vectorized.column(column))

    def test_scenario_pins_the_campaign_backend(self):
        scenario = get_scenario("manzano-campaign-batched")
        assert scenario.backend == "campaign"
        assert scenario.schedule == "dynamic,4"
        dataset = scenario.session(scale="smoke").run().dataset
        assert _digest(dataset) == CAMPAIGN_SCHEDULE_SMOKE_DIGESTS[
            ("minife", "dynamic,4")
        ]


class TestChunkInvariance:
    @pytest.mark.parametrize("application", APPLICATIONS)
    @pytest.mark.parametrize("chunk_shards", [1, 2, 3, 8])
    def test_chunked_run_is_bit_identical(self, application, chunk_shards):
        config = _smoke(application)
        whole = get_backend("campaign").run(config)
        chunked = CampaignTensorBackend(chunk_shards=chunk_shards).run(config)
        for name in whole.columns:
            assert np.array_equal(whole.column(name), chunked.column(name)), name

    @pytest.mark.parametrize("chunk_shards", [1, 3])
    def test_chunked_workqueue_run_is_bit_identical(self, chunk_shards):
        config = _smoke("minife", schedule="dynamic,4")
        whole = get_backend("campaign").run(config)
        chunked = CampaignTensorBackend(chunk_shards=chunk_shards).run(config)
        assert np.array_equal(whole.compute_times_s, chunked.compute_times_s)

    def test_fast_run_matches_streamed_shards(self):
        # run() assembles all chunks columnar-ly; iter_shards slices them
        # into per-(trial, process) shards — same rows either way
        from repro.core.timing import TimingDataset

        config = _smoke("miniqmc")
        backend = get_backend("campaign")
        fast = backend.run(config)
        merged = TimingDataset.merge(
            backend.iter_shards(config), metadata=backend.metadata(config)
        )
        for name in fast.columns:
            assert np.array_equal(fast.column(name), merged.column(name)), name
        assert fast.metadata == merged.metadata


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
        # the backend has iter_shards_parallel: the executor must not fan
        # individual shards across a pool (run_shard is not a unit of work)
        # — instead the backend folds whole shard chunks on its own pool,
        # bit-identically to the serial run
        serial = CampaignSession(_smoke("minife", trials=3)).run().dataset
        parallel = CampaignSession(
            _smoke("minife", trials=3, max_workers=max_workers),
            executor_mode=mode,
        ).run(use_cache=False).dataset
        assert np.array_equal(serial.compute_times_s, parallel.compute_times_s)

    def test_executor_routes_through_the_chunk_parallel_path(self, monkeypatch):
        calls = {"parallel": 0}
        original = CampaignTensorBackend.iter_shards_parallel

        def counting(self, config, **kwargs):
            calls["parallel"] += 1
            return original(self, config, **kwargs)

        monkeypatch.setattr(
            CampaignTensorBackend, "iter_shards_parallel", counting
        )
        shards = list(ShardExecutor(max_workers=4, mode="thread").iter_shards(
            get_backend("campaign"), _smoke("minife", trials=3, max_workers=4)
        ))
        assert calls["parallel"] == 1
        assert len(shards) == 6

    def test_executor_streams_per_process_shards(self):
        config = _smoke("minimd", max_workers=4)
        shards = list(ShardExecutor(mode="thread").iter_shards(
            get_backend("campaign"), config
        ))
        assert [(s.trial, s.process) for s in shards] == [(0, 0), (0, 1)]


class TestParallelBitIdentity:
    """The acceptance matrix: workers x chunk_shards, solo and grouped,
    in memory and spilled to a store — every cell bit-identical to the
    plain serial run."""

    @pytest.mark.parametrize("chunk_shards", [1, 3, 8])
    @pytest.mark.parametrize("max_workers", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_solo_run_matrix(self, max_workers, chunk_shards, mode):
        if mode == "process" and not _HAS_FORK:
            pytest.skip("needs the fork start method")
        serial = get_backend("campaign").run(_smoke("minife", trials=3))
        backend = CampaignTensorBackend(chunk_shards=chunk_shards)
        parallel = backend.run(
            _smoke("minife", trials=3, max_workers=max_workers), mode=mode
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

        serial = get_backend("campaign").run(_smoke(application, trials=3))
        config = _smoke(application, trials=3, max_workers=2)
        streamed = list(CampaignSession(config, executor_mode="thread").stream())
        assert [(s.trial, s.process) for s in streamed] == [
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
        # on-disk group format; the live stream and the finalized store
        # must both match the serial run
        from repro.core.timing import TimingDataset
        from repro.io.shard_store import ShardStore

        serial = get_backend("campaign").run(_smoke("minife", trials=3))
        backend = CampaignTensorBackend(chunk_shards=chunk_shards)
        store = ShardStore(tmp_path / "store", mode="w", spill_threshold_bytes=1)
        live = TimingDataset.merge(backend.iter_shards_parallel(
            _smoke("minife", trials=3, max_workers=max_workers),
            workers=max_workers,
            mode="process",
            store=store,
        ))
        assert np.array_equal(serial.compute_times_s, live.compute_times_s)
        store.finalize()
        reread = TimingDataset.merge(
            ShardStore(tmp_path / "store", mode="r").iter_shards()
        )
        assert np.array_equal(serial.compute_times_s, reread.compute_times_s)

    @pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
    @pytest.mark.parametrize("chunk_shards", [1, 3, 8])
    @pytest.mark.parametrize("max_workers", [1, 2, 4])
    def test_grouped_run_many_matrix(self, max_workers, chunk_shards):
        backend = CampaignTensorBackend(chunk_shards=chunk_shards)
        grouped = backend.run_many(
            [
                _smoke("minife", trials=2, max_workers=max_workers),
                _smoke("minife", trials=2, seed=99, max_workers=max_workers),
            ],
            mode="process",
        )
        solos = [
            get_backend("campaign").run(_smoke("minife", trials=2)),
            get_backend("campaign").run(_smoke("minife", trials=2, seed=99)),
        ]
        for dataset, solo in zip(grouped, solos):
            for name in solo.columns:
                assert np.array_equal(dataset.column(name), solo.column(name)), name


@pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
class TestWorkerCrash:
    def test_dead_worker_raises_and_leaks_no_shared_memory(self, monkeypatch):
        # a worker killed mid-fold must surface as a RuntimeError (not a
        # hang) and leave /dev/shm untouched — segments are only created
        # after a fold succeeds
        import repro.experiments.backends as backends_module

        def die_mid_fold(config, chunk):
            os._exit(1)

        monkeypatch.setattr(
            backends_module, "_campaign_chunk_columns", die_mid_fold
        )
        before = _shm_entries()
        with pytest.raises(RuntimeError, match="worker died"):
            get_backend("campaign").run(
                _smoke("minife", trials=3, max_workers=2), mode="process"
            )
        assert _shm_entries() - before == set()


class TestGroupedExecution:
    def test_group_key_ignores_seed_and_machine(self):
        a = _smoke("minife")
        b = _smoke("minife", seed=99)
        assert campaign_group_key(a) == campaign_group_key(b)
        assert campaign_group_key(a) != campaign_group_key(_smoke("minimd"))
        assert campaign_group_key(a) != campaign_group_key(
            _smoke("minife", schedule="dynamic,4")
        )

    def test_run_many_is_bit_identical_to_solo_runs(self):
        backend = get_backend("campaign")
        configs = [
            _smoke("minife"),
            _smoke("minife", seed=99),
            _smoke("minife", schedule="dynamic,4"),
            _smoke("miniqmc"),
        ]
        grouped = backend.run_many(configs)
        for config, dataset in zip(configs, grouped):
            solo = backend.run(config)
            for name in solo.columns:
                assert np.array_equal(dataset.column(name), solo.column(name)), name

    def test_scenario_matrix_shares_one_tensor_pass(self, monkeypatch):
        # two compatible campaign-backend entries must reach the backend as
        # ONE run_many call (sharing the fold), not one run() per session
        calls = {"run_many": 0, "run": 0}
        original_run_many = CampaignTensorBackend.run_many
        original_run = CampaignTensorBackend.run

        def counting_run_many(self, configs, **kwargs):
            calls["run_many"] += 1
            return original_run_many(self, configs, **kwargs)

        def counting_run(self, config, streams=None, **kwargs):
            calls["run"] += 1
            return original_run(self, config, streams, **kwargs)

        monkeypatch.setattr(CampaignTensorBackend, "run_many", counting_run_many)
        monkeypatch.setattr(CampaignTensorBackend, "run", counting_run)
        matrix = ScenarioMatrix(applications=("minife",), noises=(None, "heavy-tail"))
        results = matrix.run(scale="smoke", backend="campaign")
        assert calls["run_many"] == 1
        assert calls["run"] == 0  # both entries shared the grouped pass
        for scenario in matrix:
            solo = scenario.session(scale="smoke", backend="campaign").run()
            assert np.array_equal(
                results[scenario.name].dataset.compute_times_s,
                solo.dataset.compute_times_s,
            )

    def test_scenario_matrix_grouped_results_hit_the_cache(self, tmp_path):
        matrix = ScenarioMatrix(applications=("minife",), noises=(None, "none"))
        first = matrix.run(scale="smoke", backend="campaign", cache_dir=tmp_path)
        assert not any(result.from_cache for result in first.values())
        second = matrix.run(scale="smoke", backend="campaign", cache_dir=tmp_path)
        assert all(result.from_cache for result in second.values())
        for name in first:
            assert np.array_equal(
                first[name].dataset.compute_times_s,
                second[name].dataset.compute_times_s,
            )


class TestRecordCampaign:
    def test_record_campaign_matches_per_iteration_recording(self):
        rng = np.random.default_rng(5)
        times = np.abs(rng.normal(25e-3, 1e-3, size=(3, 7, 5)))
        shards = [(0, 0), (0, 1), (1, 0)]
        tensor = RegionInstrumenter(region="r", application="a")
        tensor.record_campaign(shards=shards, compute_times_s=times)
        rowwise = RegionInstrumenter(region="r", application="a")
        for (trial, process), plane in zip(shards, times):
            for iteration, row in enumerate(plane):
                rowwise.record_compute_times(
                    trial=trial,
                    process=process,
                    iteration=iteration,
                    compute_times_s=row,
                )
        a, b = tensor.dataset(), rowwise.dataset()
        assert a.columns == b.columns
        for name in a.columns:
            assert np.array_equal(a.column(name), b.column(name)), name

    def test_record_campaign_rejects_bad_input(self):
        instrumenter = RegionInstrumenter()
        with pytest.raises(ValueError):
            instrumenter.record_campaign(
                shards=[(0, 0)], compute_times_s=np.ones((2, 2))
            )
        with pytest.raises(ValueError):
            instrumenter.record_campaign(
                shards=[(0, 0)], compute_times_s=np.ones((2, 2, 2))
            )
        with pytest.raises(ValueError):
            instrumenter.record_campaign(
                shards=[(0, 0)], compute_times_s=-np.ones((1, 2, 2))
            )

    def test_recorded_values_are_decoupled_from_the_input_buffer(self):
        buffer = np.full((1, 2, 3), 1e-3)
        instrumenter = RegionInstrumenter()
        instrumenter.record_campaign(shards=[(0, 0)], compute_times_s=buffer)
        buffer[:] = 9.0
        recorded = instrumenter.dataset().column("compute_time_s")
        np.testing.assert_array_equal(recorded, np.full(6, 1e-3))

    def test_record_campaign_interleaves_with_row_records(self):
        instrumenter = RegionInstrumenter()
        instrumenter.record_compute_times(
            trial=0, process=0, iteration=0, compute_times_s=[1e-3, 2e-3]
        )
        instrumenter.record_campaign(
            shards=[(0, 1)],
            compute_times_s=np.full((1, 2, 2), 3e-3),
            first_iteration=1,
        )
        dataset = instrumenter.dataset()
        assert instrumenter.n_records == 6
        assert dataset.column("process").tolist() == [0, 0, 1, 1, 1, 1]
        assert dataset.column("iteration").tolist() == [0, 0, 1, 1, 2, 2]

    def test_reset_discards_blocks(self):
        instrumenter = RegionInstrumenter()
        instrumenter.record_campaign(
            shards=[(0, 0)], compute_times_s=np.ones((1, 2, 2))
        )
        instrumenter.reset()
        assert instrumenter.n_records == 0

    def test_record_columns_appends_an_assembled_block(self):
        # the parallel path assembles a chunk's columns in a worker and the
        # parent appends them: same rows as recording the tensor in place
        times = np.abs(np.random.default_rng(3).normal(1e-3, 1e-4, (2, 3, 4)))
        shards = [(0, 0), (0, 1)]
        worker = RegionInstrumenter()
        worker.record_campaign(shards=shards, compute_times_s=times)
        block = worker.dataset()
        parent = RegionInstrumenter()
        direct = RegionInstrumenter()
        for instrumenter in (parent, direct):
            instrumenter.record_compute_times(
                trial=0, process=0, iteration=0, compute_times_s=np.ones(4)
            )
        parent.record_columns({name: block.column(name) for name in block.columns})
        direct.record_campaign(shards=shards, compute_times_s=times)
        assert parent.n_records == 4 + times.size
        a, b = parent.dataset(), direct.dataset()
        for name in b.columns:
            assert np.array_equal(a.column(name), b.column(name)), name

    def test_record_columns_rejects_bad_input(self):
        source = RegionInstrumenter()
        source.record_campaign(shards=[(0, 0)], compute_times_s=np.ones((1, 2, 2)))
        dataset = source.dataset()
        columns = {name: dataset.column(name) for name in dataset.columns}
        instrumenter = RegionInstrumenter()
        missing = dict(columns)
        del missing["thread"]
        with pytest.raises(ValueError, match="columns must be exactly"):
            instrumenter.record_columns(missing)
        with pytest.raises(ValueError, match="columns must be exactly"):
            instrumenter.record_columns({**columns, "core": columns["thread"]})
        ragged = dict(columns, thread=columns["thread"][:-1])
        with pytest.raises(ValueError, match="column lengths differ"):
            instrumenter.record_columns(ragged)
        assert instrumenter.n_records == 0
