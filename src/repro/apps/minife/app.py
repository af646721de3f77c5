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

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.apps.base import ApplicationConfig, ProxyApplication, stack_shards
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
        self._busy_row: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _calibrate_time_per_nonzero(self) -> float:
        if self.config.time_per_nonzero_s is not None:
            if self.config.time_per_nonzero_s <= 0:
                raise ValueError("time_per_nonzero_s must be positive")
            return self.config.time_per_nonzero_s
        # Use the same pencil decomposition the timed loop uses, so the
        # *median thread* of a static schedule lands exactly on the target.
        from repro.openmp.schedule import StaticSchedule

        busy = StaticSchedule().simulate_campaign(
            self._pencil_nnz[np.newaxis, np.newaxis], self.config.n_threads
        )
        return TARGET_MEDIAN_ARRIVAL_S / float(np.median(busy))

    @property
    def time_per_nonzero_s(self) -> float:
        """Calibrated (or configured) cost of one stencil nonzero, in seconds."""
        return self._time_per_nonzero

    # ------------------------------------------------------------------
    # work model
    # ------------------------------------------------------------------
    def item_costs_campaign(self, shards, n_iterations, rng):
        """Cost of every (z, y) pencil of the mat-vec loop: the matrix is
        deterministic, so the pencil costs are broadcast (zero draws)."""
        return np.broadcast_to(
            self._item_costs, (len(shards), n_iterations, self._item_costs.size)
        )

    def base_thread_times_campaign(self, shards, n_iterations, rng):
        """Per-thread pure mat-vec time under the configured loop schedule:
        the matrix never changes, so the schedule folds the one ``(1, 1,
        n_pencils)`` cost row once per app and the busy row is broadcast
        over all shards and iterations (bit-identical to folding the
        broadcast cost tensor: every schedule's fold replays identical rows
        to identical sums)."""
        if self._busy_row is None:
            self._busy_row = self.config.schedule.simulate_campaign(
                self._item_costs[np.newaxis, np.newaxis], self.config.n_threads
            )[0, 0]
        row = self._busy_row
        return np.broadcast_to(row, (len(shards), n_iterations, row.size))

    def application_delays_campaign(self, shards, n_iterations, rng):
        """Occasional single-thread straggler from memory-system contention:
        each shard's events in three draws — which iterations straggle,
        which thread is the victim, how long."""
        cfg = self.config

        def stragglers(_):
            delays = np.zeros((n_iterations, cfg.n_threads))
            hit = rng.uniform(size=n_iterations) < cfg.straggler_probability
            n_hit = int(hit.sum())
            if n_hit:
                victims = rng.integers(cfg.n_threads, size=n_hit)
                delays[np.flatnonzero(hit), victims] = rng.uniform(
                    cfg.straggler_min_s, cfg.straggler_max_s, size=n_hit
                )
            return delays

        return stack_shards(shards, rng, stragglers)

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
