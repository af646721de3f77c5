"""Unit tests for the MiniFE substrate (mesh, CSR, mat-vec, CG, proxy app)."""

import numpy as np
import pytest

from repro.apps.minife import (
    BrickMesh,
    MiniFEApp,
    MiniFEConfig,
    build_stencil_csr,
    conjugate_gradient,
    csr_matvec,
    rowblock_partition,
    threaded_matvec,
)
from repro.apps.minife.app import TARGET_MEDIAN_ARRIVAL_S


class TestBrickMesh:
    def test_row_nonzeros_by_position(self):
        mesh = BrickMesh(5, 5, 5)
        corner = mesh.row_nonzeros(mesh.node_index(0, 0, 0))
        edge = mesh.row_nonzeros(mesh.node_index(1, 0, 0))
        face = mesh.row_nonzeros(mesh.node_index(1, 1, 0))
        interior = mesh.row_nonzeros(mesh.node_index(2, 2, 2))
        assert (corner, edge, face, interior) == (8, 12, 18, 27)

    def test_total_nonzeros_formula(self):
        mesh = BrickMesh(6, 7, 8)
        assert mesh.total_nonzeros == (3 * 6 - 2) * (3 * 7 - 2) * (3 * 8 - 2)

    def test_cumulative_nonzeros_matches_row_sum(self):
        mesh = BrickMesh(4, 3, 5)
        explicit = np.cumsum([mesh.row_nonzeros(r) for r in range(mesh.n_rows)])
        for k in (0, 1, 7, 12, 25, mesh.n_rows):
            expected = 0 if k == 0 else explicit[k - 1]
            assert mesh.cumulative_nonzeros(k) == pytest.approx(expected)

    def test_rowblock_nonzeros_sum_to_total(self):
        mesh = BrickMesh(10, 10, 10)
        blocks = mesh.rowblock_nonzeros(7)
        assert blocks.sum() == pytest.approx(mesh.total_nonzeros)

    def test_boundary_blocks_carry_less_work(self):
        """The mechanism behind MiniFE's early threads (§4.2.1)."""
        mesh = BrickMesh(40, 40, 40)
        blocks = mesh.rowblock_nonzeros(8)
        interior = blocks[1:-1]
        assert blocks[0] < interior.min()
        assert blocks[-1] < interior.min()

    def test_pencil_nonzeros_consistent_with_total(self):
        mesh = BrickMesh(7, 6, 5)
        assert mesh.pencil_nonzeros().sum() == pytest.approx(mesh.total_nonzeros)

    def test_node_index_round_trip(self):
        mesh = BrickMesh(4, 5, 6)
        for idx in (0, 13, 57, mesh.n_rows - 1):
            assert mesh.node_index(*mesh.node_coords(idx)) == idx

    def test_out_of_range_rejected(self):
        mesh = BrickMesh(2, 2, 2)
        with pytest.raises(IndexError):
            mesh.node_index(2, 0, 0)
        with pytest.raises(ValueError):
            mesh.cumulative_nonzeros(1000)


class TestStencilKernel:
    def test_csr_structure_matches_mesh_counts(self):
        mesh = BrickMesh(5, 4, 3)
        matrix = build_stencil_csr(5, 4, 3)
        assert matrix.n_rows == mesh.n_rows
        assert matrix.nnz == mesh.total_nonzeros
        np.testing.assert_array_equal(
            matrix.row_nnz(), [mesh.row_nonzeros(r) for r in range(mesh.n_rows)]
        )

    def test_matrix_is_symmetric(self):
        dense = build_stencil_csr(4, 4, 4).to_dense()
        np.testing.assert_allclose(dense, dense.T)

    def test_matvec_matches_dense_product(self, rng):
        matrix = build_stencil_csr(4, 5, 3)
        x = rng.standard_normal(matrix.n_rows)
        np.testing.assert_allclose(
            csr_matvec(matrix, x), matrix.to_dense() @ x, rtol=1e-12
        )

    def test_threaded_matvec_equals_serial(self, rng):
        matrix = build_stencil_csr(6, 6, 6)
        x = rng.standard_normal(matrix.n_rows)
        result = threaded_matvec(matrix, x, 7)
        np.testing.assert_allclose(result.y, csr_matvec(matrix, x), rtol=1e-12)
        assert result.total_nonzeros == matrix.nnz

    def test_rowblock_partition_covers_rows(self):
        blocks = rowblock_partition(100, 7)
        assert blocks[0][0] == 0 and blocks[-1][1] == 100
        covered = sum(end - start for start, end in blocks)
        assert covered == 100

    def test_cg_solves_stencil_system(self):
        matrix = build_stencil_csr(5, 5, 5)
        b = np.ones(matrix.n_rows)
        result = conjugate_gradient(matrix, b, tol=1e-10)
        assert result.converged
        np.testing.assert_allclose(csr_matvec(matrix, result.x), b, atol=1e-6)

    def test_cg_callback_invoked(self):
        matrix = build_stencil_csr(3, 3, 3)
        iterations = []
        conjugate_gradient(
            matrix,
            np.ones(matrix.n_rows),
            callback=lambda it, res, x: iterations.append(it),
        )
        assert iterations and iterations[0] == 1


class TestMiniFEApp:
    def test_calibration_hits_target_median(self):
        app = MiniFEApp()
        rng = np.random.default_rng(0)
        base = app.base_thread_times(0, 0, rng)
        assert np.median(base) == pytest.approx(TARGET_MEDIAN_ARRIVAL_S, rel=1e-6)
        assert len(base) == 48

    def test_boundary_threads_arrive_early(self):
        app = MiniFEApp()
        base = app.base_thread_times(0, 0, np.random.default_rng(0))
        interior_median = np.median(base)
        assert base[0] < interior_median - 1e-3
        assert base[-1] < interior_median - 1e-3

    def test_straggler_probability_controls_delays(self):
        config = MiniFEConfig(straggler_probability=1.0)
        app = MiniFEApp(config)
        delays = app.application_delays(0, 0, np.random.default_rng(1))
        assert np.count_nonzero(delays) == 1
        assert config.straggler_min_s <= delays.max() <= config.straggler_max_s
        quiet = MiniFEApp(MiniFEConfig(straggler_probability=0.0))
        assert np.all(quiet.application_delays(0, 0, np.random.default_rng(1)) == 0.0)

    def test_reference_kernel_verifies_matvec_and_cg(self):
        app = MiniFEApp(MiniFEConfig(kernel_nx=8, kernel_ny=8, kernel_nz=8))
        result = app.run_reference_kernel(np.random.default_rng(2))
        assert result["matvec_block_mismatch"] < 1e-10
        assert result["cg_converged"] == 1.0

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
        row = app.base_thread_times(0, 0, np.random.default_rng(0))
        np.testing.assert_array_equal(tensor, np.tile(row, (3, 5, 1)))

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

    def test_application_delays_batch_straggler_statistics(self):
        app = MiniFEApp(
            MiniFEConfig(nx=24, ny=24, nz=24, n_threads=8, straggler_probability=0.5)
        )
        delays = app.application_delays_batch(0, 400, np.random.default_rng(1))
        assert delays.shape == (400, 8)
        struck = delays > 0
        # at most one victim per iteration, delay inside the configured range
        assert np.all(struck.sum(axis=1) <= 1)
        hit_rows = struck.any(axis=1)
        assert 0.35 < hit_rows.mean() < 0.65
        values = delays[struck]
        assert np.all(values >= app.config.straggler_min_s)
        assert np.all(values <= app.config.straggler_max_s)
