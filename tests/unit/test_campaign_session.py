"""Unit tests for the CampaignSession facade and result caching."""

import dataclasses
import json
import sys
import threading

import numpy as np
import pytest

from repro.analysis import AnalysisResults, analyze_dataset
from repro.core.timing import TimingDataset
from repro.experiments.config import CampaignConfig
from repro.experiments.session import (
    CampaignResult,
    CampaignSession,
    analysis_cache_path,
    campaign_store_path,
    config_cache_key,
    describe_param,
    load_analysis_product,
    store_analysis_product,
)
from repro.io.cache_tier import PRODUCTS_DIR, CacheTier
from shards import shards_of


def _assert_columns_equal(a: TimingDataset, b: TimingDataset) -> None:
    assert set(a.columns) == set(b.columns)
    for name in a.columns:
        np.testing.assert_array_equal(a.column(name), b.column(name))


class TestSessionFacade:
    def test_fluent_run_analyze_report_chain(self, smoke_config):
        report = CampaignSession(smoke_config).run("minife").analyze().report()
        assert 0.0 <= report.laggard_fraction <= 1.0

    def test_run_returns_result_with_lazy_merged_dataset(self, smoke_config):
        result = CampaignSession(smoke_config).run()
        assert isinstance(result, CampaignResult)
        assert result.application == "minife"
        assert not result.from_cache
        dataset = result.dataset
        assert isinstance(dataset, TimingDataset)
        assert dataset.n_samples == smoke_config.samples_per_application
        assert result.dataset is dataset  # merged exactly once
        assert isinstance(result.analyze(), AnalysisResults)

    def test_n_samples_counts_without_merging(self, smoke_config):
        result = CampaignSession(smoke_config).run()
        assert result.n_samples == smoke_config.samples_per_application
        assert result._dataset is None
        assert result.n_samples == result.dataset.n_samples

    def test_result_blocks_hold_every_shard_in_order(self, smoke_config):
        result = CampaignSession(smoke_config).run()
        keys = [sl.sort_key for block in result.iter_column_blocks() for sl in block.slices]
        assert len(keys) == smoke_config.trials * smoke_config.processes
        assert keys == sorted(keys)

    def test_run_retargets_application(self, smoke_config):
        session = CampaignSession(smoke_config)
        result = session.run("minimd")
        assert result.application == "minimd"
        assert result.dataset.metadata["application"] == "minimd"
        assert "minimd" in session
        assert session["minimd"] is result

    def test_run_all_covers_every_application(self, smoke_config):
        results = CampaignSession(smoke_config).run_all()
        assert set(results) == {"minife", "minimd", "miniqmc"}
        for name, result in results.items():
            assert result.dataset.metadata["application"] == name

    def test_stream_yields_shards_that_merge_to_run_dataset(self, smoke_config):
        session = CampaignSession(smoke_config)
        blocks = list(session.stream())
        assert sum(len(block.slices) for block in blocks) == (
            smoke_config.trials * smoke_config.processes
        )
        backend = session.backend_for()
        merged = TimingDataset.merge(blocks, metadata=backend.metadata(smoke_config))
        _assert_columns_equal(merged, session.run().dataset)

    @pytest.mark.parametrize("sources", ["neither", "both"])
    def test_result_holds_blocks_or_a_store(self, smoke_config, tmp_path, sources):
        blocks = CampaignSession(smoke_config).run().iter_column_blocks()
        store = CampaignSession(smoke_config).run(store=tmp_path / "store").store
        kwargs = {} if sources == "neither" else {"blocks": blocks, "store": store}
        with pytest.raises(ValueError, match="either column blocks or a store"):
            CampaignResult(smoke_config, **kwargs)

    def test_result_has_no_dataset_form(self, smoke_config):
        dataset = CampaignSession(smoke_config).run().dataset
        with pytest.raises(TypeError):
            CampaignResult(smoke_config, dataset=dataset)

    def test_dataset_and_analyze_run_on_demand(self, smoke_config):
        session = CampaignSession(smoke_config)
        assert session.dataset().n_samples == smoke_config.samples_per_application
        assert isinstance(session.analyze(), AnalysisResults)

    def test_analyze_without_run_stores_no_result(self, smoke_config):
        session = CampaignSession(smoke_config)
        results = session.analyze()
        assert isinstance(results, AnalysisResults)
        assert sorted(results) == sorted(
            ["earlybird", "histogram", "laggards", "normality", "percentiles", "reclaimable"]
        )
        assert "minife" not in session

    @pytest.mark.parametrize("origin", ["shards", "store"])
    def test_result_analyze_equals_analyze_dataset(self, smoke_config, tmp_path, origin):
        session = CampaignSession(smoke_config.with_backend("event"))
        if origin == "store":
            result = session.run(store=tmp_path / "store")
        else:
            result = session.run()
        analyzed = result.analyze()
        merged = analyze_dataset(result.dataset)
        assert json.dumps(analyzed.as_payload(), sort_keys=True) == json.dumps(
            merged.as_payload(), sort_keys=True
        )
        assert analyzed.report().as_dict() == merged.report().as_dict()
        np.testing.assert_array_equal(
            analyzed["percentiles"].values, merged["percentiles"].values
        )
        np.testing.assert_array_equal(
            analyzed["histogram"].counts, merged["histogram"].counts
        )


class TestShardStream:
    def test_stream_is_lazy(self, smoke_config):
        stream = CampaignSession(smoke_config.with_backend("vectorized")).stream()
        first = next(stream)
        assert [sl.sort_key for sl in first.slices] == [(0, 0)]
        assert first.n_samples == smoke_config.iterations * smoke_config.threads


    @pytest.mark.parametrize("backend", ["campaign", "event", "vectorized"])
    def test_stream_merges_to_the_dense_run_on_every_backend(
        self, smoke_config, backend
    ):
        config = smoke_config.with_backend(backend)
        session = CampaignSession(config)
        merged = TimingDataset.merge(
            list(session.stream()),
            metadata=session.backend_for().metadata(config),
        )
        dense = session.run(use_cache=False).dataset
        assert dense.is_dense()
        _assert_columns_equal(merged, dense)


class TestResultCaching:
    def test_cache_round_trip(self, smoke_config, tmp_path):
        first = CampaignSession(smoke_config, cache_dir=tmp_path).run()
        assert not first.from_cache
        assert first.store is None  # in-memory result; the entry is on disk
        cached_files = list(tmp_path.glob("shards_minife_*.store"))
        assert cached_files == [campaign_store_path(tmp_path, smoke_config)]
        second = CampaignSession(smoke_config, cache_dir=tmp_path).run()
        assert second.from_cache
        assert second.store.path == cached_files[0]
        _assert_columns_equal(first.dataset, second.dataset)
        assert second.dataset.metadata == first.dataset.metadata

    def test_use_cache_false_recomputes(self, smoke_config, tmp_path):
        CampaignSession(smoke_config, cache_dir=tmp_path).run()
        again = CampaignSession(smoke_config, cache_dir=tmp_path).run(use_cache=False)
        assert not again.from_cache

    def test_cached_result_reconstructs_shards(self, smoke_config, tmp_path):
        first = CampaignSession(smoke_config, cache_dir=tmp_path).run()
        cached = CampaignSession(smoke_config, cache_dir=tmp_path).run()
        shards = shards_of(cached.iter_column_blocks())
        originals = shards_of(first.iter_column_blocks())
        # a hit streams exactly the shards the run stored
        assert [s.slices for s in shards] == [s.slices for s in originals]
        for stored, original in zip(shards, originals):
            for name, values in original.columns.items():
                np.testing.assert_array_equal(stored.columns[name], values)
        merged = TimingDataset.merge(shards)
        np.testing.assert_array_equal(
            merged.compute_times_s, cached.dataset.compute_times_s
        )

    def test_in_memory_and_store_runs_share_one_entry(self, smoke_config, tmp_path):
        first = CampaignSession(smoke_config, cache_dir=tmp_path).run()
        second = CampaignSession(smoke_config, cache_dir=tmp_path).run(store=True)
        assert second.from_cache
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            campaign_store_path(tmp_path, smoke_config).name
        ]
        assert not list(tmp_path.glob("*.npz"))
        _assert_columns_equal(first.dataset, second.dataset)
        # ... and the other way round: a spilled run serves an in-memory hit
        other = tmp_path / "other"
        spilled = CampaignSession(smoke_config, cache_dir=other).run(store=True)
        hit = CampaignSession(smoke_config, cache_dir=other).run()
        assert not spilled.from_cache and hit.from_cache
        _assert_columns_equal(spilled.dataset, hit.dataset)

    def test_cache_hit_analyses_match_the_fresh_run(self, smoke_config, tmp_path):
        fresh = CampaignSession(smoke_config, cache_dir=tmp_path).run()
        hit = CampaignSession(smoke_config, cache_dir=tmp_path).run()
        assert hit.from_cache
        assert json.dumps(hit.analyze().as_payload(), sort_keys=True) == json.dumps(
            fresh.analyze().as_payload(), sort_keys=True
        )

    def test_cache_key_stability_and_sensitivity(self, smoke_config):
        assert config_cache_key(smoke_config) == config_cache_key(
            CampaignConfig.smoke()
        )
        assert config_cache_key(smoke_config) != config_cache_key(
            CampaignConfig.smoke(seed=8)
        )
        assert config_cache_key(smoke_config) != config_cache_key(
            smoke_config.for_application("minimd")
        )
        # the machine is part of the key: its noise population and its size
        machine = smoke_config.machine
        for other in (
            machine.with_noise_profile("heavy-tail"),
            machine.without_noise(),
            dataclasses.replace(machine, n_nodes=machine.n_nodes + 2),
        ):
            assert config_cache_key(smoke_config) != config_cache_key(
                dataclasses.replace(smoke_config, machine=other)
            )
        assert config_cache_key(smoke_config) == config_cache_key(
            dataclasses.replace(smoke_config, machine=dataclasses.replace(machine))
        )
        # execution knobs that cannot change the samples share the cache entry
        assert config_cache_key(smoke_config) == config_cache_key(
            smoke_config.parallel(4)
        )


    def test_cache_key_is_pinned(self):
        # a new key orphans every cache entry written under the old one, so
        # the payload (and with it this value) changes only on purpose
        assert config_cache_key(CampaignConfig.smoke()) == "658a5f37d82b2963"


class TestAnalysisProductCaching:
    def test_repeat_analyze_hits_the_product_cache(self, smoke_config, tmp_path):
        session = CampaignSession(smoke_config, cache_dir=tmp_path)
        first = session.analyze(analyses=["percentiles", "laggards"])
        assert session.analysis_cache_hits == 0
        assert session.analysis_cache_misses == 2
        assert len(list((tmp_path / PRODUCTS_DIR).glob("analysis_minife_*.pkl"))) == 2
        second = session.analyze(analyses=["percentiles", "laggards"])
        assert session.analysis_cache_hits == 2
        assert session.analysis_cache_misses == 2
        np.testing.assert_array_equal(
            first["percentiles"].mean_median(),
            second["percentiles"].mean_median(),
        )

    def test_cache_survives_sessions_without_recomputing(self, smoke_config, tmp_path):
        warm = CampaignSession(smoke_config, cache_dir=tmp_path)
        reference = warm.analyze(analyses=["percentiles"])
        fresh = CampaignSession(smoke_config, cache_dir=tmp_path)
        hit = fresh.analyze(analyses=["percentiles"])
        assert fresh.analysis_cache_hits == 1
        assert fresh.analysis_cache_misses == 0
        assert hit.application == "minife"
        np.testing.assert_array_equal(
            reference["percentiles"].mean_median(),
            hit["percentiles"].mean_median(),
        )

    def test_products_outlive_their_evicted_store(self, smoke_config, tmp_path):
        """The tier's budget evicts stores, never products: a config's
        products still answer ``analyze`` once its store is gone."""
        probe = tmp_path / "probe"
        CampaignSession(smoke_config, cache_dir=probe).run()
        budget = CacheTier(probe).total_bytes * 3 // 2
        cache = tmp_path / "cache"
        first = CampaignSession(smoke_config, cache_dir=cache, cache_max_bytes=budget)
        first.run()
        reference = first.analyze(analyses=["percentiles", "laggards"])
        other = CampaignConfig.smoke(seed=8)
        CampaignSession(other, cache_dir=cache, cache_max_bytes=budget).run()
        assert not campaign_store_path(cache, smoke_config).exists()
        assert campaign_store_path(cache, other).exists()
        again = CampaignSession(smoke_config, cache_dir=cache, cache_max_bytes=budget)
        hit = again.analyze(analyses=["percentiles", "laggards"])
        assert (again.analysis_cache_hits, again.analysis_cache_misses) == (2, 0)
        np.testing.assert_array_equal(
            reference["percentiles"].mean_median(),
            hit["percentiles"].mean_median(),
        )

    def test_partial_hits_recompute_only_missing_passes(self, smoke_config, tmp_path):
        CampaignSession(smoke_config, cache_dir=tmp_path).analyze(
            analyses=["percentiles"]
        )
        session = CampaignSession(smoke_config, cache_dir=tmp_path)
        results = session.analyze(analyses=["percentiles", "laggards"])
        assert session.analysis_cache_hits == 1
        assert session.analysis_cache_misses == 1
        assert sorted(results) == ["laggards", "percentiles"]

    def test_config_keys_the_cache(self, smoke_config, tmp_path):
        CampaignSession(smoke_config, cache_dir=tmp_path).analyze(
            analyses=["percentiles"]
        )
        other = CampaignSession(
            CampaignConfig.smoke(seed=8), cache_dir=tmp_path
        )
        other.analyze(analyses=["percentiles"])
        assert other.analysis_cache_hits == 0
        assert other.analysis_cache_misses == 1

    def test_no_cache_dir_disables_counters(self, smoke_config):
        session = CampaignSession(smoke_config)
        session.analyze(analyses=["percentiles"])
        assert session.analysis_cache_hits == 0
        assert session.analysis_cache_misses == 0

    def test_default_repr_parameters_key_stably(self, smoke_config, tmp_path):
        # EarlybirdPass holds an EarlyBirdModel with no __repr__; the key
        # must not embed its memory address (which changes every process)
        from repro.analysis import get_analysis

        paths = {
            analysis_cache_path(tmp_path, smoke_config, get_analysis("earlybird"))
            for _ in range(3)
        }
        assert len(paths) == 1
        key = describe_param(get_analysis("earlybird").model)
        assert "0x" not in key and "EarlyBirdModel" in key

    def test_earlybird_products_hit_the_cache_across_sessions(
        self, smoke_config, tmp_path
    ):
        CampaignSession(smoke_config, cache_dir=tmp_path).analyze(
            analyses=["earlybird"]
        )
        fresh = CampaignSession(smoke_config, cache_dir=tmp_path)
        fresh.analyze(analyses=["earlybird"])
        assert fresh.analysis_cache_hits == 1
        assert fresh.analysis_cache_misses == 0

    def test_large_array_parameters_key_distinct_entries(self, smoke_config, tmp_path):
        # repr() elides big arrays to '...'; the key must hash full contents
        from repro.analysis import get_analysis

        a, b = get_analysis("percentiles"), get_analysis("percentiles")
        a.big, b.big = np.arange(10_000), np.arange(10_000) * 2
        path_a = analysis_cache_path(tmp_path, smoke_config, a)
        path_b = analysis_cache_path(tmp_path, smoke_config, b)
        assert path_a != path_b
        b.big = np.arange(10_000)
        assert analysis_cache_path(tmp_path, smoke_config, b) == path_a

    def test_container_parameters_describe_their_contents(self, smoke_config, tmp_path):
        # repr() of a list/dict elides nested big arrays and embeds object
        # addresses; containers must be described element-wise instead
        a = describe_param([np.arange(5000)])
        b = describe_param([np.arange(5000) * 2])
        assert a != b and "..." not in a
        assert "ndarray" in describe_param({"edges": np.arange(5000)})

        class Opaque:
            __slots__ = ()

        assert describe_param({"model": Opaque()}) is None
        assert describe_param((1, "x", 2.5)) == "tuple[1;'x';2.5]"

    def test_slotted_parameters_are_described_stably(self, smoke_config, tmp_path):
        from repro.analysis import get_analysis

        class SlottedParam:
            __slots__ = ("threshold",)

            def __init__(self, threshold):
                self.threshold = threshold

        p = get_analysis("percentiles")
        p.knob = SlottedParam(0.5)
        described = describe_param(p.knob)
        assert "0x" not in described and "threshold=0.5" in described
        assert analysis_cache_path(
            tmp_path, smoke_config, p
        ) == analysis_cache_path(tmp_path, smoke_config, p)

    def test_indescribable_parameters_disable_caching_with_a_warning(
        self, smoke_config, tmp_path
    ):
        from repro.analysis import get_analysis

        class Opaque:  # default repr, no __dict__, no slots payload
            __slots__ = ()

        p = get_analysis("percentiles")
        p.knob = Opaque()
        with pytest.warns(RuntimeWarning, match="no stable description"):
            assert analysis_cache_path(tmp_path, smoke_config, p) is None

    def test_concurrent_writers_of_one_product_publish_a_whole_entry(self, tmp_path):
        """The service's job threads share a pid: writers racing on one
        product entry must each stage their own file, so every store
        publishes and the entry always loads whole."""
        path = tmp_path / "analysis_minife_percentiles_0000.pkl"
        product = {"values": np.arange(20_000, dtype=np.float64)}
        errors = []

        def write():
            try:
                for _ in range(20):
                    store_analysis_product(path, product)
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        hit, loaded = load_analysis_product(path)
        assert hit
        np.testing.assert_array_equal(loaded["values"], product["values"])
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
