"""The calibrated MiniFE proxy used by the campaign.

Timed region
    The sparse matrix-vector product over a 200³ node mesh per process
    (the paper's §3.2 configuration).

Work decomposition
    The OpenMP loop runs over (z, y) "pencils" (contiguous runs of ``nx``
    rows), statically block-distributed over the 48 threads — identical to a
    contiguous row-block decomposition.  Pencils containing boundary nodes
    carry fewer stencil nonzeros, so the first and last thread of the team do
    measurably less work and arrive early, which produces MiniFE's
    left-skewed, strongly non-normal arrival pattern (Table 1 row "MiniFE",
    Figure 4's low 5th/25th percentiles).

Calibration
    * per-nonzero cost is set so the *median* thread spends ≈ 26.30 ms in the
      region (the paper's mean median arrival time);
    * an application-level straggler model (memory-bandwidth / page-fault
      contention during the mat-vec) delays one random thread by 1–4 ms in
      ``straggler_probability`` of process-iterations; together with the
      machine's OS-noise interrupts this reproduces the ≈ 22 % of iterations
      that contain a > 1 ms laggard (Figure 5b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.apps.base import ApplicationConfig, ProxyApplication
from repro.apps.minife.cg import conjugate_gradient
from repro.apps.minife.csr import build_stencil_csr
from repro.apps.minife.matvec import csr_matvec, threaded_matvec
from repro.apps.minife.mesh import BrickMesh

#: The paper's mean median arrival time for MiniFE (seconds).
TARGET_MEDIAN_ARRIVAL_S = 26.30e-3


@dataclass
class MiniFEConfig(ApplicationConfig):
    """MiniFE-specific knobs on top of the shared application config."""

    #: production mesh (per process), §3.2: "2003 matrix elements per process"
    nx: int = 200
    ny: int = 200
    nz: int = 200
    #: seconds of compute per stencil nonzero; ``None`` → calibrated so the
    #: median thread hits :data:`TARGET_MEDIAN_ARRIVAL_S`
    time_per_nonzero_s: Optional[float] = None
    #: probability that a process-iteration contains an application-level
    #: straggler thread (bandwidth/page-fault contention)
    straggler_probability: float = 0.18
    #: straggler delay range in seconds
    straggler_min_s: float = 1.0e-3
    straggler_max_s: float = 4.0e-3
    #: reduced-scale mesh used by the reference kernel
    kernel_nx: int = 16
    kernel_ny: int = 16
    kernel_nz: int = 16

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.straggler_probability <= 1.0:
            raise ValueError("straggler_probability must be in [0, 1]")
        if self.straggler_min_s < 0 or self.straggler_max_s < self.straggler_min_s:
            raise ValueError("invalid straggler delay range")


class MiniFEApp(ProxyApplication):
    """MiniFE proxy application (timed region: mat-vec)."""

    name = "minife"
    region = "matvec"

    def __init__(self, config: Optional[MiniFEConfig] = None) -> None:
        super().__init__(config if config is not None else MiniFEConfig())
        self.config: MiniFEConfig
        self.mesh = BrickMesh(self.config.nx, self.config.ny, self.config.nz)
        self._pencil_nnz = self.mesh.pencil_nonzeros()
        # calibration depends on _pencil_nnz being set first
        self._time_per_nonzero = self._calibrate_time_per_nonzero()
        # item costs are deterministic (the matrix does not change between
        # iterations), so compute them once
        self._item_costs = self._pencil_nnz * self._time_per_nonzero
        self._base_times_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _calibrate_time_per_nonzero(self) -> float:
        if self.config.time_per_nonzero_s is not None:
            if self.config.time_per_nonzero_s <= 0:
                raise ValueError("time_per_nonzero_s must be positive")
            return self.config.time_per_nonzero_s
        # Use the same pencil decomposition the timed loop uses, so the
        # *median thread* of a static schedule lands exactly on the target.
        from repro.openmp.schedule import StaticSchedule

        outcome = StaticSchedule().simulate(self._pencil_nnz, self.config.n_threads)
        median_nnz = float(np.median(outcome.busy_time))
        return TARGET_MEDIAN_ARRIVAL_S / median_nnz

    @property
    def time_per_nonzero_s(self) -> float:
        """Calibrated (or configured) cost of one stencil nonzero, in seconds."""
        return self._time_per_nonzero

    # ------------------------------------------------------------------
    # work model
    # ------------------------------------------------------------------
    def item_costs(
        self, process: int, iteration: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Cost of every (z, y) pencil of the mat-vec loop."""
        return self._item_costs

    def base_thread_times(
        self, process: int, iteration: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-thread pure mat-vec time (cached: the matrix never changes)."""
        if self._base_times_cache is None:
            self._base_times_cache = super().base_thread_times(process, iteration, rng)
        return self._base_times_cache

    def application_delays(
        self, process: int, iteration: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Occasional single-thread straggler from memory-system contention."""
        delays = np.zeros(self.config.n_threads)
        if rng.uniform() < self.config.straggler_probability:
            victim = int(rng.integers(self.config.n_threads))
            delays[victim] = rng.uniform(
                self.config.straggler_min_s, self.config.straggler_max_s
            )
        return delays

    # ------------------------------------------------------------------
    # whole-campaign work model (the ``"campaign"`` backend)
    # ------------------------------------------------------------------
    def application_delays_batch(
        self, process: int, n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """All of the shard's straggler events in three vectorised draws:
        which iterations straggle, which thread is the victim, how long.

        The default ``application_delays_campaign`` stacks these planes,
        each under its absolute ``("shard", trial, process)`` scope, so any
        chunking or worker assignment replays identical events."""
        cfg = self.config
        delays = np.zeros((n_iterations, cfg.n_threads))
        hit = rng.uniform(size=n_iterations) < cfg.straggler_probability
        n_hit = int(hit.sum())
        if n_hit:
            victims = rng.integers(cfg.n_threads, size=n_hit)
            delays[np.flatnonzero(hit), victims] = rng.uniform(
                cfg.straggler_min_s, cfg.straggler_max_s, size=n_hit
            )
        return delays

    def item_costs_campaign(self, shards, n_iterations, rng):
        """Deterministic matrix: broadcast the pencil costs (zero draws)."""
        return np.broadcast_to(
            self._item_costs, (len(shards), n_iterations, self._item_costs.size)
        )

    def base_thread_times_campaign(self, shards, n_iterations, rng):
        """Broadcast the cached busy-time row over all shards and iterations
        (bit-identical to folding the broadcast cost tensor: every schedule's
        campaign kernel replays identical rows to identical sums)."""
        row = self.base_thread_times(0, 0, rng)
        return np.broadcast_to(row, (len(shards), n_iterations, row.size))

    # ------------------------------------------------------------------
    # reference kernel
    # ------------------------------------------------------------------
    def run_reference_kernel(self, rng: np.random.Generator) -> Dict[str, float]:
        """Assemble a reduced-scale stencil matrix, run a threaded mat-vec and
        a short CG solve; returns verification quantities."""
        cfg = self.config
        matrix = build_stencil_csr(cfg.kernel_nx, cfg.kernel_ny, cfg.kernel_nz)
        x = rng.standard_normal(matrix.n_rows)
        reference = csr_matvec(matrix, x)
        threaded = threaded_matvec(matrix, x, cfg.n_threads)
        matvec_error = float(np.max(np.abs(reference - threaded.y)))
        b = np.ones(matrix.n_rows)
        cg = conjugate_gradient(matrix, b, tol=1e-8, max_iterations=500)
        return {
            "rows": float(matrix.n_rows),
            "nonzeros": float(matrix.nnz),
            "matvec_block_mismatch": matvec_error,
            "cg_iterations": float(cg.iterations),
            "cg_residual": cg.residual_norm,
            "cg_converged": float(cg.converged),
        }

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update(
            {
                "mesh": f"{self.config.nx}x{self.config.ny}x{self.config.nz}",
                "time_per_nonzero_ns": self._time_per_nonzero * 1e9,
                "straggler_probability": self.config.straggler_probability,
            }
        )
        return info
