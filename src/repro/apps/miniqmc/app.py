"""The calibrated MiniQMC proxy used by the campaign.

Timed region
    "The entirety of the computation for the individual threaded movers" —
    each of the 48 threads advances its own walker through a sweep of
    electron moves.

Work decomposition
    Exactly one mover per thread (the loop has 48 items); there is no
    work-sharing imbalance.  What spreads the arrival times is the *walkers
    themselves*: per-sweep cost depends on how many proposed moves are
    accepted (accepted moves pay the wavefunction update) and on the walker's
    configuration, producing a wide, approximately normal per-thread
    distribution (the paper: IQR ≈ 9 ms around a ≈ 61 ms median, ~95 % of
    process-iterations pass the normality tests) with little drift across
    iterations (Figure 8).

Calibration
    The per-move cost is set so the mean per-thread mover time is ≈ 60.91 ms;
    the per-walker relative standard deviation is set so the process-iteration
    IQR is ≈ 9 ms (σ ≈ IQR / 1.349 ≈ 6.7 ms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.apps.base import ApplicationConfig, ProxyApplication
from repro.apps.miniqmc.mover import run_mover_sweep
from repro.sim.random import maybe_scope

#: The paper's mean median arrival time for MiniQMC (seconds).
TARGET_MEDIAN_ARRIVAL_S = 60.91e-3
#: The paper's mean process-iteration IQR (seconds); σ = IQR / 1.349.
TARGET_IQR_S = 9.05e-3


@dataclass
class MiniQMCConfig(ApplicationConfig):
    """MiniQMC-specific knobs on top of the shared application config."""

    #: electrons per walker (NiO-like miniQMC problem sizes are O(100))
    n_electrons: int = 128
    #: electron sweeps per timed region instance
    sweeps_per_iteration: int = 1
    #: mean mover time per thread; ``None`` → the paper's 60.91 ms
    mover_mean_s: Optional[float] = None
    #: relative standard deviation of per-walker mover time;
    #: ``None`` → calibrated from the paper's IQR
    mover_relative_sd: Optional[float] = None
    #: relative standard deviation of the per-process mean mover time
    #: (different walker populations are cheaper or dearer on average)
    process_mean_spread: float = 0.02
    #: half-width of the per-process relative spread of the mover-time
    #: standard deviation (walker populations also differ in variability);
    #: this between-process heterogeneity is what makes the *aggregated*
    #: (application / application-iteration level) distribution reject
    #: normality while individual process-iterations remain normal (§4.1)
    process_sd_spread: float = 0.35
    #: reduced-scale kernel parameters
    kernel_electrons: int = 8
    kernel_orbitals: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_electrons < 1 or self.sweeps_per_iteration < 1:
            raise ValueError("n_electrons and sweeps_per_iteration must be >= 1")


class MiniQMCApp(ProxyApplication):
    """MiniQMC proxy application (timed region: the threaded movers)."""

    name = "miniqmc"
    region = "movers"

    def __init__(self, config: Optional[MiniQMCConfig] = None) -> None:
        super().__init__(config if config is not None else MiniQMCConfig())
        self.config: MiniQMCConfig
        self.mover_mean_s = (
            self.config.mover_mean_s
            if self.config.mover_mean_s is not None
            else TARGET_MEDIAN_ARRIVAL_S
        )
        if self.mover_mean_s <= 0:
            raise ValueError("mover_mean_s must be positive")
        if self.config.mover_relative_sd is not None:
            self.mover_relative_sd = self.config.mover_relative_sd
        else:
            sigma = TARGET_IQR_S / 1.349
            self.mover_relative_sd = sigma / self.mover_mean_s
        if self.mover_relative_sd < 0:
            raise ValueError("mover_relative_sd must be non-negative")
        if not 0.0 <= self.config.process_sd_spread < 1.0:
            raise ValueError("process_sd_spread must be in [0, 1)")
        # neutral per-process walker-population parameters until begin_process
        self._process_mean_scale = 1.0
        self._process_sd_scale = 1.0

    # ------------------------------------------------------------------
    # per-process lifecycle
    # ------------------------------------------------------------------
    def begin_process(self, process: int, rng: np.random.Generator) -> None:
        """Draw the walker-population statistics of this (trial, process).

        A process's walkers keep their character for the whole trial: some
        populations are on average cheaper/dearer to move and some are more
        variable.  Within one process-iteration the mover times stay normal
        (so Table 1's ~95 % pass rate holds), but pooling processes with
        different variances produces the heavier-than-normal aggregate the
        paper observes at the application and application-iteration levels.
        """
        cfg = self.config
        self._process_mean_scale = float(
            np.clip(rng.normal(1.0, cfg.process_mean_spread), 0.5, 1.5)
        )
        self._process_sd_scale = float(
            rng.uniform(1.0 - cfg.process_sd_spread, 1.0 + cfg.process_sd_spread)
        )

    # ------------------------------------------------------------------
    # work model
    # ------------------------------------------------------------------
    def item_costs(
        self, process: int, iteration: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Cost of every mover (one loop item per thread).

        Per-walker times are independent normals around the process's mean;
        the truncation at 20 % of the mean only guards against (astronomically
        unlikely) negative draws and does not measurably distort normality.
        """
        cfg = self.config
        mean = self.mover_mean_s * self._process_mean_scale
        sd = self.mover_mean_s * self.mover_relative_sd * self._process_sd_scale
        draws = rng.normal(mean, sd, size=cfg.n_threads)
        return np.clip(draws, 0.2 * self.mover_mean_s, None) * cfg.sweeps_per_iteration

    # ------------------------------------------------------------------
    # whole-campaign work model (the ``"campaign"`` backend)
    # ------------------------------------------------------------------
    def begin_campaign(self, shards, rng) -> None:
        """Walker-population statistics of *all* shards (the tensor analogue
        of :meth:`begin_process`).

        The realized per-process (mean, sd) parameters shape every cost draw
        of a shard, so they are taken from the *same* per-shard ``"work"``
        streams :meth:`begin_process` consumes under the per-shard backends
        — the campaign backend's mixture components are then bit-identical
        to the vectorized ones, and distributional agreement holds
        even for small process ensembles.  Two scalar draws per shard keep
        this chunk-invariant (each shard's stream is touched exactly once,
        whatever the chunking).
        """
        cfg = self.config
        streams = getattr(rng, "root_streams", None)
        if streams is not None:
            means = np.empty(len(shards))
            sds = np.empty(len(shards))
            for index, (trial, process) in enumerate(shards):
                work_rng = streams.get(self.name, "work", int(trial), int(process))
                self.begin_process(int(process), work_rng)
                means[index] = self._process_mean_scale
                sds[index] = self._process_sd_scale
            self._campaign_mean_scales = means
            self._campaign_sd_scales = sds
            return
        # plain-Generator fallback: shard-major tensor draws
        self._campaign_mean_scales = np.clip(
            rng.normal(1.0, cfg.process_mean_spread, size=len(shards)), 0.5, 1.5
        )
        self._campaign_sd_scales = rng.uniform(
            1.0 - cfg.process_sd_spread,
            1.0 + cfg.process_sd_spread,
            size=len(shards),
        )

    def item_costs_campaign(self, shards, n_iterations, rng):
        """All shards' per-walker mover times, one plane draw per shard with
        that shard's realized (mean, sd) parameters.

        Each plane sits under its absolute ``("shard", trial, process)``
        scope, so a shard's mover times depend only on its own identity —
        any chunking or worker assignment replays identical draws.
        """
        cfg = self.config
        planes = np.empty((len(shards), n_iterations, cfg.n_threads))
        for index, (trial, process) in enumerate(shards):
            mean = self.mover_mean_s * self._campaign_mean_scales[index]
            sd = (
                self.mover_mean_s
                * self.mover_relative_sd
                * self._campaign_sd_scales[index]
            )
            with maybe_scope(rng, "shard", int(trial), int(process)):
                planes[index] = rng.normal(
                    mean, sd, size=(n_iterations, cfg.n_threads)
                )
        draws = np.clip(planes, 0.2 * self.mover_mean_s, None)
        return draws * cfg.sweeps_per_iteration

    # ------------------------------------------------------------------
    # reference kernel
    # ------------------------------------------------------------------
    def run_reference_kernel(self, rng: np.random.Generator) -> Dict[str, float]:
        """Run one reduced-scale mover sweep; returns verification quantities."""
        cfg = self.config
        return run_mover_sweep(
            n_electrons=cfg.kernel_electrons,
            n_sweeps=cfg.sweeps_per_iteration,
            n_orbitals=cfg.kernel_orbitals,
            seed=int(rng.integers(0, 2**31 - 1)),
        )

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update(
            {
                "n_electrons": self.config.n_electrons,
                "mover_mean_ms": self.mover_mean_s * 1e3,
                "mover_relative_sd": self.mover_relative_sd,
            }
        )
        return info
