"""Unit tests for the MiniQMC substrate (splines, walkers, movers, proxy app)."""

import numpy as np
import pytest

from repro.apps.miniqmc import (
    MiniQMCApp,
    MiniQMCConfig,
    SplineOrbitalModel,
    VMCMover,
    Walker,
    WalkerEnsemble,
    run_mover_sweep,
)
from repro.apps.miniqmc.app import TARGET_IQR_S, TARGET_MEDIAN_ARRIVAL_S
from repro.apps.miniqmc.spline import cubic_bspline_weights
from repro.sim.random import PurposeSplitRNG, RandomStreams


class TestSplines:
    def test_bspline_weights_form_partition_of_unity(self):
        for t in (0.0, 0.25, 0.5, 0.99):
            assert cubic_bspline_weights(t).sum() == pytest.approx(1.0)

    def test_bspline_weights_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cubic_bspline_weights(1.5)

    def test_constant_coefficient_field_reproduced_exactly(self):
        model = SplineOrbitalModel(grid=6, n_orbitals=3, rng=np.random.default_rng(0))
        model.coefficients[...] = 2.5
        values = model.evaluate(np.array([0.3, 0.7, 0.1]))
        np.testing.assert_allclose(values, 2.5, rtol=1e-12)

    def test_evaluation_is_periodic(self):
        model = SplineOrbitalModel(grid=8, n_orbitals=4, rng=np.random.default_rng(1))
        a = model.evaluate(np.array([0.1, 0.2, 0.3]))
        b = model.evaluate(np.array([1.1, -0.8, 0.3]))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_flops_scale_with_orbitals(self):
        small = SplineOrbitalModel(grid=8, n_orbitals=4).flops_per_evaluation()
        large = SplineOrbitalModel(grid=8, n_orbitals=64).flops_per_evaluation()
        assert large > small


class TestWalkersAndMovers:
    def test_ensemble_creation(self):
        ensemble = WalkerEnsemble.create(5, 16, np.random.default_rng(0))
        assert ensemble.n_walkers == 5
        assert ensemble.total_electrons() == 80

    def test_walker_shape_validation(self):
        with pytest.raises(ValueError):
            Walker(electrons=np.zeros((3, 2)))

    def test_mover_sweep_counts_every_proposal(self):
        result = run_mover_sweep(n_electrons=6, n_sweeps=3, seed=1)
        assert result["proposed"] == 18
        assert 0.0 <= result["acceptance_ratio"] <= 1.0
        assert result["orbital_evaluations"] == 2 * result["proposed"]

    def test_accepted_moves_change_positions(self):
        rng = np.random.default_rng(2)
        orbitals = SplineOrbitalModel(grid=8, n_orbitals=8, rng=rng)
        walker = Walker(electrons=rng.uniform(size=(4, 3)))
        before = walker.electrons.copy()
        mover = VMCMover(orbitals=orbitals, rng=rng)
        stats = mover.sweep(walker, n_sweeps=2)
        if stats.accepted > 0:
            assert not np.allclose(before, walker.electrons)
        assert walker.age == 1

    def test_invalid_mover_parameters(self):
        orbitals = SplineOrbitalModel(grid=8, n_orbitals=2)
        with pytest.raises(ValueError):
            VMCMover(orbitals=orbitals, timestep=0.0)


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

    def test_reference_kernel_runs(self):
        result = MiniQMCApp().run_reference_kernel(np.random.default_rng(3))
        assert result["proposed"] > 0

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
