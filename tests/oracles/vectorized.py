"""The per-iteration reference sampler, registered as the ``"vectorized"``
backend.

It samples the applications' calibrated work/cost/noise models one
process-iteration at a time, in the readable nested-loop order: for each
(trial, process) shard it re-derives that process's ``work``/``noise``
streams by name, begins the process and replays its iterations.  The
production ``"campaign"`` backend lifts the same models to whole shard
chunks and draws its randomness in a different order, so the two agree in
distribution, not bit-for-bit: the agreement tests and the throughput
guards compare the campaign backend against this one.

Importing this module registers the backend (``tests/conftest.py`` and
``benchmarks/conftest.py`` do).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.base import ProxyApplication
from repro.cluster.noise import OSNoiseModel
from repro.core.aggregation import ColumnBlock, campaign_block
from repro.experiments.backends import (
    CampaignBackend,
    ShardSpec,
    build_application,
    register_backend,
)
from repro.sim.random import RandomStreams


def base_thread_times(
    app: ProxyApplication, process: int, iteration: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-thread pure compute time of one process-iteration under the
    application's loop schedule.

    MiniFE serves its one deterministic row from its own cache: refolding
    it every iteration gives the same bits but makes this reference ~1.75x
    slower on MiniFE, which would inflate the throughput guards'
    campaign-over-reference speedups.
    """
    cached = getattr(app, "base_thread_times", None)
    if cached is not None:
        return cached(process, iteration, rng)
    costs = app.item_costs(process, iteration, rng)
    return app.config.schedule.simulate(costs, app.config.n_threads).busy_time


def thread_compute_times(
    app: ProxyApplication,
    *,
    process: int,
    iteration: int,
    rng: np.random.Generator,
    noise: Optional[OSNoiseModel] = None,
) -> np.ndarray:
    """Per-thread measured compute time of one process-iteration.

    Combines the schedule's per-thread busy time, application-level
    delays, execution jitter and OS-noise preemptions.
    """
    base = base_thread_times(app, process, iteration, rng)
    extra = app.application_delays(process, iteration, rng)
    if extra.shape != base.shape:
        raise ValueError("application_delays must return one value per thread")
    times = base + extra
    if noise is not None:
        if noise.spec.enabled and noise.spec.jitter_fraction > 0:
            jitter = rng.normal(1.0, noise.spec.jitter_fraction, size=times.shape)
            times = times * np.clip(jitter, 0.5, None)
        times = times + noise.batch_delays(times, rng)
    return times


@register_backend("vectorized")
class VectorizedBackend(CampaignBackend):
    """Closed-form sampling of the calibrated work/cost/noise models.

    Shards at (trial, process) granularity: each shard re-derives that
    process's ``work``/``noise`` streams by name and replays its iterations,
    exactly as the serial nested loop would.
    """

    def unit_block(self, config, spec: ShardSpec) -> ColumnBlock:
        streams = RandomStreams(config.seed)
        app = build_application(config)
        trial, process = spec.trial, spec.process
        work_rng = streams.get(app.name, "work", trial, process)
        noise_rng = streams.get(app.name, "noise", trial, process)
        noise = config.machine.build_noise_model(noise_rng)
        app.begin_process(process, work_rng)
        times = [
            thread_compute_times(
                app, process=process, iteration=iteration, rng=work_rng, noise=noise
            )
            for iteration in range(config.iterations)
        ]
        return campaign_block([(trial, process)], np.stack(times)[np.newaxis])
