"""The calibrated MiniMD proxy used by the campaign.

Timed region
    The Lennard-Jones forcing function (the most computationally intensive
    section), at the paper's 128³ compute volume distributed over 8 processes.

Work decomposition
    Atoms are statically block-distributed over the 48 threads; per-atom cost
    is (stored neighbours) × (cost per pair).  Because the melt is
    homogeneous every thread gets almost exactly the same work, which is why
    MiniMD's arrival distributions are tight and (per Table 1) mostly normal.

Two-phase behaviour (Figure 6)
    During the first ``warmup_iterations`` (19 in the paper) the timed region
    also absorbs neighbour-list (re)build and data-layout settling costs that
    differ per thread; the work model adds a per-thread uniform component in
    that phase, reproducing the wider, consistent early distribution of
    Figure 7a.  After warm-up only OS-noise interrupts perturb the tight
    distribution, producing the rare (≈ 5 %) high-magnitude laggards of
    Figure 7c.

Calibration
    Cost per pair is set so the median thread spends ≈ 24.74 ms in the
    region; the warm-up spread is ± ≈ 1 ms around a slightly higher median
    (the paper reports medians between 25 and 26 ms with a range just over
    2 ms for the first phase).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.apps.base import ApplicationConfig, ProxyApplication, stack_shards
from repro.apps.minimd.neighbor import DEFAULT_CUTOFF, DEFAULT_DENSITY, expected_neighbors

#: The paper's mean median arrival time for MiniMD (seconds).
TARGET_MEDIAN_ARRIVAL_S = 24.74e-3
#: Warm-up phase median (paper: "a median of between 25 ms and 26 ms").
TARGET_WARMUP_MEDIAN_S = 25.75e-3
#: Centre of the per-thread warm-up delay (seconds).
WARMUP_OFFSET_S = TARGET_WARMUP_MEDIAN_S - TARGET_MEDIAN_ARRIVAL_S


@dataclass
class MiniMDConfig(ApplicationConfig):
    """MiniMD-specific knobs on top of the shared application config."""

    #: production problem: 128³ unit cells across the whole 8-process job
    problem_cells: int = 128
    n_job_processes: int = 8
    density: float = DEFAULT_DENSITY
    cutoff: float = DEFAULT_CUTOFF
    #: seconds per stored pair interaction; ``None`` → calibrated
    time_per_pair_s: Optional[float] = None
    #: number of initial iterations exhibiting the wider warm-up distribution
    warmup_iterations: int = 19
    #: half-width of the warm-up per-thread uniform spread (seconds)
    warmup_spread_s: float = 1.0e-3
    #: atoms-per-thread relative variation (neighbour-count fluctuation)
    work_imbalance_fraction: float = 0.0015

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.problem_cells < 1 or self.n_job_processes < 1:
            raise ValueError("problem_cells and n_job_processes must be >= 1")
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be non-negative")
        if self.warmup_spread_s < 0 or self.work_imbalance_fraction < 0:
            raise ValueError("spread parameters must be non-negative")


class MiniMDApp(ProxyApplication):
    """MiniMD proxy application (timed region: Lennard-Jones forces)."""

    name = "minimd"
    region = "force_lj"

    def __init__(self, config: Optional[MiniMDConfig] = None) -> None:
        super().__init__(config if config is not None else MiniMDConfig())
        self.config: MiniMDConfig
        cfg = self.config
        total_atoms = 4 * cfg.problem_cells**3
        self.atoms_per_process = total_atoms // cfg.n_job_processes
        self.pairs_per_atom = expected_neighbors(cfg.density, cfg.cutoff)
        self._time_per_pair = self._calibrate_time_per_pair()

    # ------------------------------------------------------------------
    def _calibrate_time_per_pair(self) -> float:
        if self.config.time_per_pair_s is not None:
            if self.config.time_per_pair_s <= 0:
                raise ValueError("time_per_pair_s must be positive")
            return self.config.time_per_pair_s
        atoms_per_thread = self.atoms_per_process / self.config.n_threads
        pairs_per_thread = atoms_per_thread * self.pairs_per_atom
        return TARGET_MEDIAN_ARRIVAL_S / pairs_per_thread

    @property
    def time_per_pair_s(self) -> float:
        """Calibrated (or configured) cost of one pair interaction, in seconds."""
        return self._time_per_pair

    def in_warmup(self, iteration: int) -> bool:
        """Whether ``iteration`` falls in the wider warm-up phase."""
        return iteration < self.config.warmup_iterations

    # ------------------------------------------------------------------
    # work model
    # ------------------------------------------------------------------
    @property
    def block_cost_s(self) -> float:
        """Mean cost of one thread's atom block (seconds): the block's atoms
        times their stored neighbours times the cost per pair."""
        atoms_per_thread = self.atoms_per_process / self.config.n_threads
        return atoms_per_thread * self.pairs_per_atom * self._time_per_pair

    def item_costs_campaign(self, shards, n_iterations, rng):
        """Cost of every atom block of the force loop.

        Atoms are pre-grouped into ``n_threads`` blocks (the static schedule
        then maps one block per thread); each block's cost fluctuates slightly
        with the realised neighbour counts: one 2-D normal draw per shard.
        """
        cfg = self.config
        fluctuation = stack_shards(
            shards,
            rng,
            lambda _: rng.normal(
                1.0, cfg.work_imbalance_fraction, size=(n_iterations, cfg.n_threads)
            ),
        )
        return self.block_cost_s * np.clip(fluctuation, 0.5, None)

    def application_delays_campaign(self, shards, n_iterations, rng):
        """Warm-up phase: neighbour-list build / layout settling per thread,
        one 2-D uniform draw per shard over its (at most
        ``warmup_iterations``) warm-up rows."""
        cfg = self.config
        delays = np.zeros((len(shards), n_iterations, cfg.n_threads))
        n_warm = min(cfg.warmup_iterations, n_iterations)
        if n_warm:
            half_width, shape = cfg.warmup_spread_s, (n_warm, cfg.n_threads)
            spread = stack_shards(
                shards, rng, lambda _: rng.uniform(-half_width, half_width, size=shape)
            )
            delays[:, :n_warm] = np.clip(WARMUP_OFFSET_S + spread, 0.0, None)
        return delays

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update(
            {
                "atoms_per_process": self.atoms_per_process,
                "pairs_per_atom": self.pairs_per_atom,
                "time_per_pair_ns": self._time_per_pair * 1e9,
                "warmup_iterations": self.config.warmup_iterations,
            }
        )
        return info
