"""Integration: campaign → dataset → analysis → tables/figures pipeline."""

import numpy as np
import pytest

from repro.analysis import EarlybirdPass, analyze_dataset
from repro.experiments.config import CampaignConfig
from repro.experiments.figures import figure3_histogram, percentile_figure
from repro.experiments.session import CampaignSession
from repro.experiments.tables import section4_metrics_table, table1
from repro.io.dataset_io import load_dataset, save_dataset


def _dataset(config):
    return CampaignSession(config).run().dataset


class TestCampaignStructure:
    def test_dataset_dimensions_match_configuration(self, minife_dataset):
        assert minife_dataset.n_trials == 1
        assert minife_dataset.n_processes == 2
        assert minife_dataset.n_iterations == 30
        assert minife_dataset.n_threads == 48
        assert minife_dataset.is_dense()
        assert minife_dataset.metadata["machine"] == "manzano"

    def test_campaign_is_reproducible(self):
        config = CampaignConfig.smoke()
        first = _dataset(config)
        second = _dataset(CampaignConfig.smoke())
        np.testing.assert_array_equal(first.compute_times_s, second.compute_times_s)

    def test_different_seeds_give_different_noise(self):
        shape = dict(application="minimd", trials=1, processes=1, iterations=5, threads=16)
        a = _dataset(CampaignConfig(seed=1, **shape))
        b = _dataset(CampaignConfig(seed=2, **shape))
        assert not np.allclose(a.compute_times_s, b.compute_times_s)

    def test_session_run_all_covers_every_application(self):
        results = CampaignSession(CampaignConfig.smoke()).run_all()
        assert set(results) == {"minife", "minimd", "miniqmc"}
        for name, result in results.items():
            assert result.dataset.application == name

    def test_noise_ablation_reduces_spread(self):
        noisy_cfg = CampaignConfig.smoke("minife")
        quiet_cfg = CampaignConfig.smoke("minife")
        quiet_cfg.machine = quiet_cfg.machine.without_noise()
        noisy = _dataset(noisy_cfg)
        quiet = _dataset(quiet_cfg)
        assert quiet.compute_times_s.std() < noisy.compute_times_s.std()
        assert quiet.metadata["noise_enabled"] is False


class TestEndToEnd:
    def test_full_pipeline_to_tables_and_figures(self, all_datasets, tmp_path):
        results = {name: analyze_dataset(ds) for name, ds in all_datasets.items()}
        rows = table1(results)
        metrics = section4_metrics_table(results)
        assert len(rows) == 3 and len(metrics) == 3
        for name, dataset in all_datasets.items():
            assert figure3_histogram(results[name])["histogram"].total == dataset.n_samples
            series = percentile_figure(results[name], "fig")["series"]
            assert series.values.shape[1] == dataset.n_iterations
        # persistence round trip of a full campaign dataset
        path = save_dataset(all_datasets["minife"], tmp_path / "minife")
        reloaded = load_dataset(path)
        assert reloaded.n_samples == all_datasets["minife"].n_samples

    def test_report_recommendations_differ_across_applications(self, all_datasets):
        recommendations = {
            name: analyze_dataset(ds).report(include_earlybird=False).recommendation
            for name, ds in all_datasets.items()
        }
        # MiniQMC's wide distribution must not get the same advice as MiniFE's
        # tight laggard-driven profile (§5 discussion)
        assert recommendations["miniqmc"] != recommendations["minife"]

    def test_earlybird_gain_largest_for_miniqmc(self, all_datasets):
        gains = {}
        for name, dataset in all_datasets.items():
            results = analyze_dataset(dataset, [EarlybirdPass(max_groups=25)])
            gains[name] = results["earlybird"]["mean_improvement_s"]
        assert gains["miniqmc"] > gains["minife"]
        assert gains["miniqmc"] > gains["minimd"]
