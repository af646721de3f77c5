"""Unit tests for the CampaignSession facade, result caching and shims."""

import numpy as np
import pytest

from repro.core.analyzer import ThreadTimingAnalyzer
from repro.core.timing import TimingDataset, TimingShard
from repro.experiments.campaign import quick_campaign, run_all_campaigns, run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignResult, CampaignSession, config_cache_key
from repro.io.dataset_io import load_shards, save_shards


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
        assert result.analyze() is result.analyze()
        assert isinstance(result.analyze(), ThreadTimingAnalyzer)

    def test_result_iterates_over_shards(self, smoke_config):
        result = CampaignSession(smoke_config).run()
        shards = list(result)
        assert len(shards) == smoke_config.trials * smoke_config.processes
        assert all(isinstance(shard, TimingShard) for shard in shards)
        assert [shard.sort_key for shard in shards] == sorted(
            shard.sort_key for shard in shards
        )

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
        shards = list(session.stream())
        assert len(shards) == smoke_config.trials * smoke_config.processes
        backend = session.backend_for()
        merged = TimingDataset.merge(shards, metadata=backend.metadata(smoke_config))
        _assert_columns_equal(merged, session.run().dataset)

    def test_dataset_and_analyze_run_on_demand(self, smoke_config):
        session = CampaignSession(smoke_config)
        assert session.dataset().n_samples == smoke_config.samples_per_application
        assert isinstance(session.analyze(), ThreadTimingAnalyzer)


class TestShardStream:
    def test_stream_is_lazy(self, smoke_config):
        stream = CampaignSession(smoke_config.with_backend("vectorized")).stream()
        first = next(stream)
        assert (first.trial, first.process) == (0, 0)
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
        cached_files = list(tmp_path.glob("campaign_minife_*.npz"))
        assert len(cached_files) == 1
        second = CampaignSession(smoke_config, cache_dir=tmp_path).run()
        assert second.from_cache
        _assert_columns_equal(first.dataset, second.dataset)
        assert second.dataset.metadata["application"] == "minife"

    def test_use_cache_false_recomputes(self, smoke_config, tmp_path):
        CampaignSession(smoke_config, cache_dir=tmp_path).run()
        again = CampaignSession(smoke_config, cache_dir=tmp_path).run(use_cache=False)
        assert not again.from_cache

    def test_cached_result_reconstructs_shards(self, smoke_config, tmp_path):
        CampaignSession(smoke_config, cache_dir=tmp_path).run()
        cached = CampaignSession(smoke_config, cache_dir=tmp_path).run()
        shards = list(cached)
        assert len(shards) == smoke_config.trials
        merged = TimingDataset.merge(shards)
        np.testing.assert_array_equal(
            merged.compute_times_s, cached.dataset.compute_times_s
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
        # execution knobs that cannot change the samples share the cache entry
        assert config_cache_key(smoke_config) == config_cache_key(
            smoke_config.parallel(4)
        )


class TestAnalysisProductCaching:
    def test_repeat_analyze_hits_the_product_cache(self, smoke_config, tmp_path):
        session = CampaignSession(smoke_config, cache_dir=tmp_path)
        first = session.analyze(analyses=["percentiles", "laggards"])
        assert session.analysis_cache_hits == 0
        assert session.analysis_cache_misses == 2
        assert len(list(tmp_path.glob("analysis_minife_*.pkl"))) == 2
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

    def test_partial_hits_recompute_only_missing_passes(self, smoke_config, tmp_path):
        CampaignSession(smoke_config, cache_dir=tmp_path).analyze(
            analyses=["percentiles"]
        )
        session = CampaignSession(smoke_config, cache_dir=tmp_path)
        results = session.analyze(analyses=["percentiles", "laggards"])
        assert session.analysis_cache_hits == 1
        assert session.analysis_cache_misses == 1
        assert sorted(results) == ["laggards", "percentiles"]

    def test_exact_flag_and_config_key_the_cache(self, smoke_config, tmp_path):
        session = CampaignSession(smoke_config, cache_dir=tmp_path)
        session.analyze(analyses=["percentiles"])
        session.analyze(analyses=["percentiles"], exact=False)
        assert session.analysis_cache_misses == 2
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

        session = CampaignSession(smoke_config, cache_dir=tmp_path)
        paths = {
            session._analysis_cache_path(smoke_config, get_analysis("earlybird"), True)
            for _ in range(3)
        }
        assert len(paths) == 1
        key = session._describe_param(get_analysis("earlybird").model)
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

        session = CampaignSession(smoke_config, cache_dir=tmp_path)
        a, b = get_analysis("percentiles"), get_analysis("percentiles")
        a.big, b.big = np.arange(10_000), np.arange(10_000) * 2
        path_a = session._analysis_cache_path(smoke_config, a, True)
        path_b = session._analysis_cache_path(smoke_config, b, True)
        assert path_a != path_b
        b.big = np.arange(10_000)
        assert session._analysis_cache_path(smoke_config, b, True) == path_a

    def test_container_parameters_describe_their_contents(self, smoke_config, tmp_path):
        # repr() of a list/dict elides nested big arrays and embeds object
        # addresses; containers must be described element-wise instead
        session = CampaignSession(smoke_config, cache_dir=tmp_path)
        a = session._describe_param([np.arange(5000)])
        b = session._describe_param([np.arange(5000) * 2])
        assert a != b and "..." not in a
        assert "ndarray" in session._describe_param({"edges": np.arange(5000)})

        class Opaque:
            __slots__ = ()

        assert session._describe_param({"model": Opaque()}) is None
        assert session._describe_param((1, "x", 2.5)) == "tuple[1;'x';2.5]"

    def test_slotted_parameters_are_described_stably(self, smoke_config, tmp_path):
        from repro.analysis import get_analysis

        class SlottedParam:
            __slots__ = ("threshold",)

            def __init__(self, threshold):
                self.threshold = threshold

        session = CampaignSession(smoke_config, cache_dir=tmp_path)
        p = get_analysis("percentiles")
        p.knob = SlottedParam(0.5)
        described = session._describe_param(p.knob)
        assert "0x" not in described and "threshold=0.5" in described
        assert session._analysis_cache_path(
            smoke_config, p, True
        ) == session._analysis_cache_path(smoke_config, p, True)

    def test_indescribable_parameters_disable_caching_with_a_warning(
        self, smoke_config, tmp_path
    ):
        from repro.analysis import get_analysis

        class Opaque:  # default repr, no __dict__, no slots payload
            __slots__ = ()

        session = CampaignSession(smoke_config, cache_dir=tmp_path)
        p = get_analysis("percentiles")
        p.knob = Opaque()
        with pytest.warns(RuntimeWarning, match="no stable description"):
            assert session._analysis_cache_path(smoke_config, p, True) is None


class TestShardIO:
    def test_shard_round_trip(self, smoke_config, tmp_path):
        shards = list(CampaignSession(smoke_config).stream())
        path = save_shards(shards, tmp_path / "shards")
        assert path.suffix == ".npz"
        restored = load_shards(path)
        assert len(restored) == len(shards)
        for original, loaded in zip(shards, restored):
            assert (original.trial, original.process) == (loaded.trial, loaded.process)
            for name in original.columns:
                np.testing.assert_array_equal(
                    np.asarray(original.columns[name]), loaded.columns[name]
                )
        merged = TimingDataset.merge(restored)
        assert merged.n_samples == smoke_config.samples_per_application

    def test_save_zero_shards_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_shards([], tmp_path / "empty")

    def test_load_rejects_plain_dataset_archive(self, smoke_config, tmp_path):
        from repro.io.dataset_io import save_dataset

        dataset = CampaignSession(smoke_config).run().dataset
        path = save_dataset(dataset, tmp_path / "dense")
        with pytest.raises(ValueError, match="shard"):
            load_shards(path)


class TestDeprecationShims:
    def test_run_campaign_warns_and_matches_session(self, smoke_config):
        with pytest.warns(DeprecationWarning, match="run_campaign"):
            old = run_campaign(smoke_config)
        new = CampaignSession(smoke_config).run().dataset
        _assert_columns_equal(old, new)
        assert old.metadata == new.metadata

    def test_quick_campaign_warns_and_matches_session(self):
        with pytest.warns(DeprecationWarning, match="quick_campaign"):
            old = quick_campaign(
                "minife", trials=1, processes=1, iterations=5, threads=8, seed=3
            )
        config = CampaignConfig(
            application="minife", trials=1, processes=1, iterations=5, threads=8, seed=3
        )
        _assert_columns_equal(old, CampaignSession(config).run().dataset)

    def test_run_all_campaigns_warns_and_matches_session(self, smoke_config):
        with pytest.warns(DeprecationWarning, match="run_all_campaigns"):
            old = run_all_campaigns(smoke_config, applications=["minife"])
        assert set(old) == {"minife"}
        _assert_columns_equal(
            old["minife"], CampaignSession(smoke_config).run("minife").dataset
        )
