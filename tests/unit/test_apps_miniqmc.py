"""Unit tests for the MiniQMC cost model (mover-time normals, proxy app)."""

import numpy as np
import pytest

from repro.apps.miniqmc import MiniQMCApp, MiniQMCConfig
from repro.apps.miniqmc.app import TARGET_IQR_S, TARGET_MEDIAN_ARRIVAL_S
from repro.sim.random import PurposeSplitRNG, RandomStreams

from oracles.models import MiniQMCModel


def _mover_costs(app, shards, n_iterations, rng):
    app.begin_campaign(shards, rng)
    return app.item_costs_campaign(shards, n_iterations, rng)


class TestMiniQMCApp:
    def test_calibrated_mean_and_spread(self):
        """With identical walker populations, mover times hit the paper's
        median and IQR."""
        app = MiniQMCApp(MiniQMCConfig(process_mean_spread=0.0, process_sd_spread=0.0))
        samples = _mover_costs(app, [(0, 0)], 100, np.random.default_rng(0))
        assert samples.mean() == pytest.approx(TARGET_MEDIAN_ARRIVAL_S, rel=0.02)
        iqr = np.percentile(samples, 75) - np.percentile(samples, 25)
        assert iqr == pytest.approx(TARGET_IQR_S, rel=0.1)

    def test_one_item_per_thread(self):
        app = MiniQMCApp()
        costs = _mover_costs(app, [(0, 0)], 1, np.random.default_rng(1))
        assert costs.shape == (1, 1, app.config.n_threads)

    def test_begin_campaign_changes_population_statistics(self):
        app = MiniQMCApp(MiniQMCConfig(process_sd_spread=0.5, process_mean_spread=0.05))
        app.begin_campaign([(0, process) for process in range(6)], np.random.default_rng(2))
        assert len({round(s, 6) for s in app._campaign_sd_scales}) > 1
        assert np.all(app._campaign_mean_scales >= 0.5)
        assert np.all(app._campaign_mean_scales <= 1.5)

    def test_plain_generator_draws_scales_shard_major(self):
        cfg = MiniQMCConfig()
        app = MiniQMCApp(cfg)
        app.begin_campaign([(0, 0), (0, 1), (1, 0)], np.random.default_rng(5))
        rng = np.random.default_rng(5)
        means = np.clip(rng.normal(1.0, cfg.process_mean_spread, size=3), 0.5, 1.5)
        sds = rng.uniform(1.0 - cfg.process_sd_spread, 1.0 + cfg.process_sd_spread, size=3)
        np.testing.assert_array_equal(app._campaign_mean_scales, means)
        np.testing.assert_array_equal(app._campaign_sd_scales, sds)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MiniQMCConfig(n_electrons=0)
        with pytest.raises(ValueError):
            MiniQMCApp(MiniQMCConfig(process_sd_spread=1.5))


class TestCampaignWorkModel:
    def test_item_costs_campaign_matches_the_reference_model(self):
        app = MiniQMCApp(MiniQMCConfig(n_threads=48, n_iterations=50))
        streams = RandomStreams(0)
        rng = PurposeSplitRNG(streams, app.name, "campaign")
        shards = [(0, 0), (0, 1)]
        costs = _mover_costs(app, shards, 50, rng)
        assert costs.shape == (2, 50, 48)
        # same truncation floor as the per-iteration path
        assert np.all(costs >= 0.2 * app.mover_mean_s)
        singles_rng = np.random.default_rng(2)
        for index, (trial, process) in enumerate(shards):
            # begin_campaign reads each shard's per-process "work" stream, so
            # the per-iteration reference model sees the same walker population
            model = MiniQMCModel(app)
            model.begin(process, streams.fresh(app.name, "work", trial, process))
            assert app._campaign_mean_scales[index] == model.mean_scale
            assert app._campaign_sd_scales[index] == model.sd_scale
            singles = np.stack(
                [model.item_costs(process, it, singles_rng) for it in range(50)]
            )
            assert costs[index].mean() == pytest.approx(singles.mean(), rel=0.02)
