"""Unit tests for the MiniFE cost model (mesh sparsity counts, proxy app)."""

import numpy as np
import pytest

from repro.apps.minife import BrickMesh, MiniFEApp, MiniFEConfig
from repro.apps.minife.app import TARGET_MEDIAN_ARRIVAL_S
from repro.openmp.schedule import StaticSchedule, schedule_from_name

from oracles.models import IterationModel, MiniFEModel
from oracles.schedule import simulate


def _brute_force_pencil_nonzeros(nx, ny, nz):
    """Count every node's in-mesh 27-point neighbours, summed per (z, y)."""
    counts = np.zeros((nz, ny))
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                counts[z, y] += sum(
                    0 <= x + dx < nx and 0 <= y + dy < ny and 0 <= z + dz < nz
                    for dx in (-1, 0, 1)
                    for dy in (-1, 0, 1)
                    for dz in (-1, 0, 1)
                )
    return counts.ravel()


class TestBrickMesh:
    @pytest.mark.parametrize(
        "shape", [(5, 4, 3), (1, 4, 3), (4, 1, 3), (4, 3, 1), (2, 2, 2), (1, 1, 1)]
    )
    def test_pencil_nonzeros_match_brute_force_count(self, shape):
        np.testing.assert_array_equal(
            BrickMesh(*shape).pencil_nonzeros(), _brute_force_pencil_nonzeros(*shape)
        )

    def test_total_nonzeros_formula(self):
        mesh = BrickMesh(6, 7, 8)
        total = (3 * 6 - 2) * (3 * 7 - 2) * (3 * 8 - 2)
        assert mesh.pencil_nonzeros().sum() == total

    def test_boundary_blocks_carry_less_work(self):
        """The mechanism behind MiniFE's early threads (§4.2.1)."""
        mesh = BrickMesh(40, 40, 40)
        pencils = mesh.pencil_nonzeros()[np.newaxis, np.newaxis]
        blocks = StaticSchedule().simulate_campaign(pencils, 8)[0, 0]
        interior = blocks[1:-1]
        assert blocks[0] < interior.min()
        assert blocks[-1] < interior.min()

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 2, -1)])
    def test_empty_axis_rejected(self, shape):
        with pytest.raises(ValueError):
            BrickMesh(*shape)


class TestMiniFEApp:
    def test_calibration_hits_target_median(self):
        app = MiniFEApp()
        rng = np.random.default_rng(0)
        base = app.base_thread_times_campaign([(0, 0)], 1, rng)[0, 0]
        assert np.median(base) == pytest.approx(TARGET_MEDIAN_ARRIVAL_S, rel=1e-6)
        assert len(base) == 48

    def test_boundary_threads_arrive_early(self):
        app = MiniFEApp()
        base = app.base_thread_times_campaign([(0, 0)], 1, np.random.default_rng(0))[0, 0]
        interior_median = np.median(base)
        assert base[0] < interior_median - 1e-3
        assert base[-1] < interior_median - 1e-3

    def test_straggler_probability_controls_delays(self):
        config = MiniFEConfig(straggler_probability=1.0)
        app = MiniFEApp(config)
        delays = app.application_delays_campaign([(0, 0)], 20, np.random.default_rng(1))[0]
        assert np.all(np.count_nonzero(delays, axis=1) == 1)
        values = delays[delays > 0]
        assert np.all(values >= config.straggler_min_s)
        assert np.all(values <= config.straggler_max_s)
        quiet = MiniFEApp(MiniFEConfig(straggler_probability=0.0))
        assert np.all(
            quiet.application_delays_campaign([(0, 0)], 20, np.random.default_rng(1)) == 0.0
        )

    def test_describe_includes_calibration(self):
        info = MiniFEApp().describe()
        assert info["name"] == "minife"
        assert info["time_per_nonzero_ns"] > 0.0

    def test_explicit_cost_override(self):
        app = MiniFEApp(MiniFEConfig(time_per_nonzero_s=1e-9))
        assert app.time_per_nonzero_s == 1e-9

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MiniFEConfig(straggler_probability=2.0)
        with pytest.raises(ValueError):
            MiniFEConfig(straggler_min_s=2e-3, straggler_max_s=1e-3)


class TestCampaignWorkModel:
    def test_base_thread_times_campaign_broadcasts_cached_row(self):
        app = MiniFEApp(MiniFEConfig(nx=24, ny=24, nz=24, n_threads=8, n_iterations=5))
        rng = np.random.default_rng(0)
        tensor = app.base_thread_times_campaign([(0, 0), (0, 1), (1, 0)], 5, rng)
        assert tensor.shape == (3, 5, 8)
        row = simulate(app.config.schedule, app.item_costs_campaign([(0, 0)], 1, rng)[0, 0], 8)
        np.testing.assert_array_equal(tensor, np.tile(row.busy_time, (3, 5, 1)))

    @pytest.mark.parametrize("clause", ["static", "static,4", "dynamic", "dynamic,4", "guided"])
    def test_busy_row_is_the_heap_replay_of_the_pencil_costs(self, clause):
        """The one ``(1, 1, n_pencils)`` fold behind the cached busy row
        and the calibration equals the per-row heap replay, bit for bit."""
        config = MiniFEConfig(
            nx=24, ny=24, nz=24, n_threads=8, schedule=schedule_from_name(clause)
        )
        app = MiniFEApp(config)
        rng = np.random.default_rng(0)
        costs = app.item_costs_campaign([(0, 0)], 1, rng)[0, 0]
        np.testing.assert_array_equal(
            app.base_thread_times_campaign([(0, 0)], 1, rng)[0, 0],
            simulate(config.schedule, costs, 8).busy_time,
        )
        pencils = simulate(StaticSchedule(), app.mesh.pencil_nonzeros(), 8).busy_time
        assert app.time_per_nonzero_s == TARGET_MEDIAN_ARRIVAL_S / float(np.median(pencils))

    def test_thread_compute_times_campaign_shape_and_positivity(self):
        app = MiniFEApp(MiniFEConfig(nx=24, ny=24, nz=24, n_threads=8, n_iterations=6))
        shards = [(0, 0), (0, 1), (1, 0)]
        times = app.thread_compute_times_campaign(
            shards=shards, rng=np.random.default_rng(4)
        )
        assert times.shape == (3, 6, 8)
        assert np.all(np.isfinite(times)) and np.all(times > 0)
        # delays only add to the pure schedule fold
        base = app.base_thread_times_campaign(shards, 6, np.random.default_rng(4))
        assert np.all(times >= base)

    def test_application_delays_campaign_straggler_statistics(self):
        app = MiniFEApp(
            MiniFEConfig(nx=24, ny=24, nz=24, n_threads=8, straggler_probability=0.5)
        )
        delays = app.application_delays_campaign(
            [(0, 0), (0, 1)], 400, np.random.default_rng(1)
        )
        assert delays.shape == (2, 400, 8)
        struck = delays > 0
        # at most one victim per iteration, delay inside the configured range
        assert np.all(struck.sum(axis=2) <= 1)
        hit_rows = struck.any(axis=2)
        assert 0.35 < hit_rows.mean() < 0.65
        values = delays[struck]
        assert np.all(values >= app.config.straggler_min_s)
        assert np.all(values <= app.config.straggler_max_s)

    def test_reference_model_folds_the_same_pencil_costs(self):
        """The per-iteration reference model serves the campaign hook's
        pencil costs and busy-time row."""
        app = MiniFEApp(MiniFEConfig(nx=24, ny=24, nz=24, n_threads=8))
        rng = np.random.default_rng(0)
        model = MiniFEModel(app)
        costs = model.item_costs(0, 0, rng)
        np.testing.assert_array_equal(
            costs, app.item_costs_campaign([(0, 0)], 1, rng)[0, 0]
        )
        np.testing.assert_array_equal(
            IterationModel.base_thread_times(model, 0, 0, rng),
            app.base_thread_times_campaign([(0, 0)], 1, rng)[0, 0],
        )
