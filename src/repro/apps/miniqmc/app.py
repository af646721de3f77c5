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

from repro.apps.base import ApplicationConfig, ProxyApplication, stack_shards

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

    # ------------------------------------------------------------------
    # work model
    # ------------------------------------------------------------------
    def begin_campaign(self, shards, rng) -> None:
        """Draw the walker-population statistics of every (trial, process).

        A process's walkers keep their character for the whole trial: some
        populations are on average cheaper/dearer to move and some are more
        variable.  Within one process-iteration the mover times stay normal
        (so Table 1's ~95 % pass rate holds), but pooling processes with
        different variances produces the heavier-than-normal aggregate the
        paper observes at the application and application-iteration levels.

        The realized per-process (mean, sd) scales shape every cost draw of
        a shard, so they are the first two draws of the shard's own
        ``"work"`` stream — the stream the per-iteration reference samplers
        begin the process from — and the mixture components are identical
        to theirs, which keeps distributional agreement for small process
        ensembles.  Each shard reads a *fresh* generator of its stream, so
        the scales depend only on the shard, whatever the chunking and
        however often a context re-begins it.
        """
        cfg = self.config
        sd_bounds = (1.0 - cfg.process_sd_spread, 1.0 + cfg.process_sd_spread)
        streams = getattr(rng, "root_streams", None)
        if streams is not None:
            means = np.empty(len(shards))
            sds = np.empty(len(shards))
            for index, (trial, process) in enumerate(shards):
                work = streams.fresh(self.name, "work", int(trial), int(process))
                means[index] = np.clip(
                    work.normal(1.0, cfg.process_mean_spread), 0.5, 1.5
                )
                sds[index] = work.uniform(*sd_bounds)
        else:
            # plain-Generator fallback: shard-major tensor draws
            means = np.clip(
                rng.normal(1.0, cfg.process_mean_spread, size=len(shards)), 0.5, 1.5
            )
            sds = rng.uniform(*sd_bounds, size=len(shards))
        self._campaign_mean_scales = means
        self._campaign_sd_scales = sds

    def item_costs_campaign(self, shards, n_iterations, rng):
        """Cost of every mover (one loop item per thread): one plane draw
        per shard with that shard's realized (mean, sd) scales.

        Per-walker times are independent normals around the process's mean;
        the truncation at 20 % of the mean only guards against (astronomically
        unlikely) negative draws and does not measurably distort normality.
        """
        cfg = self.config
        means = self.mover_mean_s * self._campaign_mean_scales
        sds = self.mover_mean_s * self.mover_relative_sd * self._campaign_sd_scales
        draws = stack_shards(
            shards,
            rng,
            lambda index: rng.normal(
                means[index], sds[index], size=(n_iterations, cfg.n_threads)
            ),
        )
        return np.clip(draws, 0.2 * self.mover_mean_s, None) * cfg.sweeps_per_iteration

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
