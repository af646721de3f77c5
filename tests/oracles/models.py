"""The proxy applications' work models, one process-iteration at a time.

The program samples each application as whole-campaign tensors
(:meth:`~repro.apps.base.ProxyApplication.thread_compute_times_campaign`).
The reference samplers (:mod:`oracles.vectorized`, :mod:`oracles.event`)
replay the same calibrated models per process-iteration, in the draw order
of the original nested-loop sampler, which their pinned digests fix: a
model is begun once per (trial, process) from that process's ``"work"``
stream, then asked for each iteration's item costs and application delays
from the same stream.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import ProxyApplication
from repro.apps.minimd.app import WARMUP_OFFSET_S

from oracles.schedule import simulate


class IterationModel:
    """A stateless application model with no application delays."""

    def __init__(self, app: ProxyApplication) -> None:
        self.app = app
        self.n_threads = app.config.n_threads

    def begin(self, process: int, rng: np.random.Generator) -> None:
        """Draw the per-process state of one (trial, process)."""

    def item_costs(
        self, process: int, iteration: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Pure compute cost (seconds) of every item of the timed loop."""
        raise NotImplementedError

    def base_thread_times(
        self, process: int, iteration: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-thread pure compute time under the application's schedule."""
        costs = self.item_costs(process, iteration, rng)
        return simulate(self.app.config.schedule, costs, self.n_threads).busy_time

    def application_delays(
        self, process: int, iteration: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Application-level per-thread extra delays (seconds)."""
        return np.zeros(self.n_threads)


class MiniFEModel(IterationModel):
    def item_costs(self, process, iteration, rng):
        # the matrix is deterministic: the campaign hook draws nothing
        return self.app.item_costs_campaign([(0, 0)], 1, rng)[0, 0]

    def base_thread_times(self, process, iteration, rng):
        # served from the app's cached busy row: refolding the one
        # deterministic row every iteration gives the same bits but makes
        # the reference ~1.75x slower, which would inflate the throughput
        # guards' speedups
        return self.app.base_thread_times_campaign([(0, process)], 1, rng)[0, 0]

    def application_delays(self, process, iteration, rng):
        cfg = self.app.config
        delays = np.zeros(self.n_threads)
        if rng.uniform() < cfg.straggler_probability:
            victim = int(rng.integers(self.n_threads))
            delays[victim] = rng.uniform(cfg.straggler_min_s, cfg.straggler_max_s)
        return delays


class MiniMDModel(IterationModel):
    def item_costs(self, process, iteration, rng):
        fraction = self.app.config.work_imbalance_fraction
        fluctuation = rng.normal(1.0, fraction, size=self.n_threads)
        return self.app.block_cost_s * np.clip(fluctuation, 0.5, None)

    def application_delays(self, process, iteration, rng):
        if not self.app.in_warmup(iteration):
            return np.zeros(self.n_threads)
        spread = self.app.config.warmup_spread_s
        return np.clip(
            WARMUP_OFFSET_S + rng.uniform(-spread, spread, self.n_threads), 0.0, None
        )


class MiniQMCModel(IterationModel):
    def begin(self, process, rng):
        cfg = self.app.config
        self.mean_scale = float(
            np.clip(rng.normal(1.0, cfg.process_mean_spread), 0.5, 1.5)
        )
        self.sd_scale = float(
            rng.uniform(1.0 - cfg.process_sd_spread, 1.0 + cfg.process_sd_spread)
        )

    def item_costs(self, process, iteration, rng):
        app = self.app
        mean = app.mover_mean_s * self.mean_scale
        sd = app.mover_mean_s * app.mover_relative_sd * self.sd_scale
        draws = rng.normal(mean, sd, size=self.n_threads)
        floor = 0.2 * app.mover_mean_s
        return np.clip(draws, floor, None) * app.config.sweeps_per_iteration


MODELS = {"minife": MiniFEModel, "minimd": MiniMDModel, "miniqmc": MiniQMCModel}


def iteration_model(app: ProxyApplication) -> IterationModel:
    """The per-iteration model of ``app`` (a built-in application)."""
    if app.name not in MODELS:
        raise ValueError(f"no per-iteration reference model for {app.name!r}")
    return MODELS[app.name](app)
