"""The per-iteration reference sampler, registered as the ``"vectorized"``
backend.

It samples the applications' calibrated work/cost/noise models one
process-iteration at a time (:mod:`oracles.models`), in the readable
nested-loop order: for each (trial, process) shard it re-derives that
process's ``work``/``noise`` streams by name, begins the process's model
and replays its iterations.  The production ``"campaign"`` backend lifts
the same models to whole shard chunks and draws its randomness in a
different order, so the two agree in distribution, not bit-for-bit: the
agreement tests and the throughput guards compare the campaign backend
against this one.

Importing this module registers the backend (``tests/conftest.py`` and
``benchmarks/conftest.py`` do).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster.noise import OSNoiseModel
from repro.core.aggregation import ColumnBlock, campaign_block
from repro.experiments.backends import (
    CampaignBackend,
    ShardSpec,
    build_application,
    register_backend,
)
from repro.sim.random import RandomStreams

from oracles.models import IterationModel, iteration_model


def thread_compute_times(
    model: IterationModel,
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
    base = model.base_thread_times(process, iteration, rng)
    extra = model.application_delays(process, iteration, rng)
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
        model = iteration_model(app)
        trial, process = spec.trial, spec.process
        work_rng = streams.get(app.name, "work", trial, process)
        noise_rng = streams.get(app.name, "noise", trial, process)
        noise = config.machine.build_noise_model(noise_rng)
        model.begin(process, work_rng)
        times = [
            thread_compute_times(
                model, process=process, iteration=iteration, rng=work_rng, noise=noise
            )
            for iteration in range(config.iterations)
        ]
        return campaign_block([(trial, process)], np.stack(times)[np.newaxis])
