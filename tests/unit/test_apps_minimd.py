"""Unit tests for the MiniMD cost model (neighbour counts, proxy app)."""

import numpy as np
import pytest

from repro.apps.minimd import MiniMDApp, MiniMDConfig, expected_neighbors
from repro.apps.minimd.app import TARGET_MEDIAN_ARRIVAL_S, TARGET_WARMUP_MEDIAN_S
from repro.apps.minimd.neighbor import DEFAULT_DENSITY

from oracles.models import MiniMDModel

FCC_BASIS = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])


def _fcc_half_list_pairs_per_atom(cells, density, cutoff):
    """Mean minimum-image half-list pair count on a periodic FCC lattice."""
    spacing = (4.0 / density) ** (1.0 / 3.0)
    grid = np.stack(
        np.meshgrid(*(np.arange(cells),) * 3, indexing="ij"), axis=-1
    ).reshape(-1, 1, 3)
    positions = ((grid + FCC_BASIS) * spacing).reshape(-1, 3)
    length = cells * spacing
    delta = positions[:, None, :] - positions[None, :, :]
    delta -= length * np.round(delta / length)
    within = np.einsum("ijk,ijk->ij", delta, delta) < cutoff**2
    return np.triu(within, k=1).sum() / len(positions)


class TestNeighbors:
    def test_expected_neighbors_formula(self):
        full = expected_neighbors(0.8442, 2.5, half_list=False)
        assert full == pytest.approx(4.0 / 3.0 * np.pi * 2.5**3 * 0.8442)
        assert expected_neighbors(0.8442, 2.5) == pytest.approx(full / 2.0)

    def test_lattice_pair_count_matches_expectation(self):
        measured = _fcc_half_list_pairs_per_atom(4, DEFAULT_DENSITY, 2.5)
        expected = expected_neighbors(DEFAULT_DENSITY, 2.5)
        assert measured == pytest.approx(expected, rel=0.15)

    @pytest.mark.parametrize("density, cutoff", [(0.0, 2.5), (0.8442, 0.0), (-1.0, 2.5)])
    def test_non_positive_inputs_rejected(self, density, cutoff):
        with pytest.raises(ValueError):
            expected_neighbors(density, cutoff)


def _shard_times(app, rng):
    """One (trial, process) shard's per-thread compute times, noise-free:
    an ``(n_iterations, n_threads)`` plane of the campaign hook."""
    return app.thread_compute_times_campaign(shards=[(0, 0)], rng=rng)[0]


class TestMiniMDApp:
    def test_calibration_hits_target_median(self):
        app = MiniMDApp()
        base = app.base_thread_times_campaign([(0, 0)], 51, np.random.default_rng(0))
        assert np.median(base[0, 50]) == pytest.approx(
            TARGET_MEDIAN_ARRIVAL_S, rel=0.01
        )

    def test_block_cost_is_the_calibrated_median(self):
        """Each thread's atom block costs the paper's median arrival time
        before neighbour-count fluctuation."""
        assert MiniMDApp().block_cost_s == pytest.approx(TARGET_MEDIAN_ARRIVAL_S)

    def test_warmup_phase_widens_and_shifts_arrivals(self):
        app = MiniMDApp()
        times = _shard_times(app, np.random.default_rng(1))
        warm, steady = times[3], times[100]
        assert app.in_warmup(3) and not app.in_warmup(100)
        assert warm.std() > 3 * steady.std()
        assert np.median(warm) > np.median(steady)
        assert np.median(warm) == pytest.approx(TARGET_WARMUP_MEDIAN_S, rel=0.05)

    def test_steady_phase_is_tight(self):
        app = MiniMDApp()
        steady = _shard_times(app, np.random.default_rng(2))[150]
        assert (steady.max() - steady.min()) < 1.0e-3

    def test_atoms_per_process_partition(self):
        app = MiniMDApp(MiniMDConfig(problem_cells=16, n_job_processes=4))
        assert app.atoms_per_process == 4 * 16**3 // 4

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MiniMDConfig(problem_cells=0)
        with pytest.raises(ValueError):
            MiniMDConfig(warmup_iterations=-1)


class TestCampaignWorkModel:
    """The campaign hooks draw what the per-iteration reference model draws:
    under a plain ``Generator`` a shard's first cost row and its warm-up rows
    are bit-equal to the model's iterations."""

    def test_first_cost_row_matches_the_reference_model(self):
        app = MiniMDApp(MiniMDConfig(n_threads=8, n_iterations=10))
        costs = app.item_costs_campaign([(0, 0)], 10, np.random.default_rng(0))
        assert costs.shape == (1, 10, 8)
        single = MiniMDModel(app).item_costs(0, 0, np.random.default_rng(0))
        np.testing.assert_array_equal(costs[0, 0], single)
        assert costs.mean() == pytest.approx(single.mean(), rel=0.01)

    def test_warmup_rows_match_the_reference_model(self):
        app = MiniMDApp(MiniMDConfig(n_threads=8, warmup_iterations=3))
        delays = app.application_delays_campaign([(0, 0)], 10, np.random.default_rng(1))
        assert delays.shape == (1, 10, 8)
        assert np.all(delays[0, :3] >= 0)
        assert np.any(delays[0, :3] > 0)
        assert np.all(delays[0, 3:] == 0)
        model, rng = MiniMDModel(app), np.random.default_rng(1)
        np.testing.assert_array_equal(
            delays[0], np.stack([model.application_delays(0, it, rng) for it in range(10)])
        )

    def test_short_shards_clip_the_warmup_window(self):
        app = MiniMDApp(MiniMDConfig(n_threads=4, warmup_iterations=19))
        delays = app.application_delays_campaign(
            [(0, 0), (0, 1)], 5, np.random.default_rng(2)
        )
        assert delays.shape == (2, 5, 4)
        assert np.all(delays > 0)
