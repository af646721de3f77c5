"""Unit tests for the MiniQMC cost model (mover-time normals, proxy app)."""

import numpy as np
import pytest

from repro.apps.miniqmc import MiniQMCApp, MiniQMCConfig
from repro.apps.miniqmc.app import TARGET_IQR_S, TARGET_MEDIAN_ARRIVAL_S
from repro.sim.random import PurposeSplitRNG, RandomStreams


class TestMiniQMCApp:
    def test_calibrated_mean_and_spread(self):
        app = MiniQMCApp()
        rng = np.random.default_rng(0)
        samples = np.concatenate(
            [app.item_costs(0, i, rng) for i in range(100)]
        )
        assert samples.mean() == pytest.approx(TARGET_MEDIAN_ARRIVAL_S, rel=0.02)
        iqr = np.percentile(samples, 75) - np.percentile(samples, 25)
        assert iqr == pytest.approx(TARGET_IQR_S, rel=0.1)

    def test_one_item_per_thread(self):
        app = MiniQMCApp()
        costs = app.item_costs(0, 0, np.random.default_rng(1))
        assert len(costs) == app.config.n_threads

    def test_begin_process_changes_population_statistics(self):
        app = MiniQMCApp(MiniQMCConfig(process_sd_spread=0.5, process_mean_spread=0.05))
        rng = np.random.default_rng(2)
        scales = []
        for process in range(6):
            app.begin_process(process, rng)
            scales.append((app._process_mean_scale, app._process_sd_scale))
        assert len({round(s[1], 6) for s in scales}) > 1
        assert all(0.5 <= mean <= 1.5 for mean, _ in scales)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MiniQMCConfig(n_electrons=0)
        with pytest.raises(ValueError):
            MiniQMCApp(MiniQMCConfig(process_sd_spread=1.5))


class TestCampaignWorkModel:
    def test_item_costs_campaign_matches_single_draw_statistics(self):
        app = MiniQMCApp(MiniQMCConfig(n_threads=48, n_iterations=50))
        streams = RandomStreams(0)
        rng = PurposeSplitRNG(streams, app.name, "campaign")
        shards = [(0, 0), (0, 1)]
        app.begin_campaign(shards, rng)
        costs = app.item_costs_campaign(shards, 50, rng)
        assert costs.shape == (2, 50, 48)
        # same truncation floor as the per-iteration path
        assert np.all(costs >= 0.2 * app.mover_mean_s)
        singles_rng = np.random.default_rng(2)
        for plane, (trial, process) in zip(costs, shards):
            # begin_campaign reads each shard's per-process "work" stream, so
            # the per-iteration path sees the same walker population
            work_rng = streams.fresh(app.name, "work", trial, process)
            app.begin_process(process, work_rng)
            singles = np.stack(
                [app.item_costs(process, it, singles_rng) for it in range(50)]
            )
            assert plane.mean() == pytest.approx(singles.mean(), rel=0.02)
