"""Common interface of the proxy applications.

A :class:`ProxyApplication` is its whole-campaign work model: for a chunk of
``(trial, process)`` shards it returns every thread's compute time of every
iteration as one ``(shards, iterations, threads)`` tensor
(:meth:`~ProxyApplication.thread_compute_times_campaign`).  An application
implements the hooks that tensor is built from:

* ``begin_campaign`` — per-process state (optional);
* ``item_costs_campaign`` — the pure compute cost of every item of the
  *timed loop* (the unit the OpenMP schedule distributes), folded through
  the schedule into per-thread busy times;
* ``application_delays_campaign`` — application-level variability on top
  (optional).

Execution jitter and OS noise come last.  Every shard-varying draw goes
through :func:`stack_shards`, which scopes it under the shard's absolute
``("shard", trial, process)`` key, so any chunking of the shard axis and any
worker assignment sample bit-identical tensors.  The per-iteration
reference samplers in the test tree replay the same calibrated models one
process-iteration at a time; the agreement tests check that the two agree
in distribution.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.cluster.noise import OSNoiseModel
from repro.openmp.schedule import LoopSchedule, StaticSchedule
from repro.sim.random import maybe_scope


def stack_shards(
    shards: Sequence[tuple],
    rng: np.random.Generator,
    draw: Callable[[int], np.ndarray],
) -> np.ndarray:
    """Stack one plane per shard, ``draw(index)`` for the shard at ``index``
    of ``shards``, each drawn under its absolute ``("shard", trial,
    process)`` scope.  A plane may be a scalar (one state value per shard).

    Under a :class:`~repro.sim.random.PurposeSplitRNG` a shard's plane then
    depends only on the shard, whatever chunk or worker draws it; a plain
    ``Generator`` draws the planes in shard order.  Every plane must have
    the first one's shape (e.g. the same item count in every process):
    a plane of another shape raises ``ValueError`` rather than broadcast.
    """
    planes = None
    for index, (trial, process) in enumerate(shards):
        with maybe_scope(rng, "shard", int(trial), int(process)):
            plane = draw(index)
        if planes is None:
            planes = np.empty((len(shards),) + np.shape(plane))
        elif np.shape(plane) != planes.shape[1:]:
            raise ValueError(
                f"shard {(int(trial), int(process))} drew a plane of shape "
                f"{np.shape(plane)}, shard {tuple(map(int, shards[0]))} one of "
                f"shape {planes.shape[1:]}: planes that differ per shard "
                "(e.g. item counts that differ per process) are not supported"
            )
        planes[index] = plane
    return planes


@dataclass
class ApplicationConfig:
    """Run configuration shared by all proxy applications.

    Defaults follow the paper's §3.2: 48 threads per process, 200 iterations.
    """

    n_threads: int = 48
    n_iterations: int = 200
    schedule: LoopSchedule = field(default_factory=StaticSchedule)

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")


class ProxyApplication(ABC):
    """Base class of the instrumented proxy applications."""

    #: canonical lower-case name (``'minife'`` ...)
    name: str = "abstract"
    #: name of the instrumented compute region (e.g. ``'matvec'``)
    region: str = "compute"

    def __init__(self, config: Optional[ApplicationConfig] = None) -> None:
        self.config = config if config is not None else ApplicationConfig()

    # ------------------------------------------------------------------
    # whole-campaign work model (the ``"campaign"`` backend)
    # ------------------------------------------------------------------
    def begin_campaign(
        self, shards: Sequence[tuple], rng: np.random.Generator
    ) -> None:
        """Hook invoked once per shard chunk before its campaign draws.

        Applications that carry per-process state across iterations (e.g.
        MiniQMC's walker populations, whose composition sets a process's
        mover-time statistics for the whole trial) draw one state per
        ``(trial, process)`` pair of ``shards`` here.  The default is
        stateless.
        """

    @abstractmethod
    def item_costs_campaign(
        self, shards: Sequence[tuple], n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Cost tensor ``(n_shards, n_iterations, n_items)`` of many shards:
        the pure compute cost (seconds) of every item of the timed loop
        (the unit the OpenMP schedule distributes).

        Draw each shard's plane through :func:`stack_shards`, so chunking
        the shard axis cannot change the draws.
        """

    def base_thread_times_campaign(
        self, shards: Sequence[tuple], n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Pure compute times ``(n_shards, n_iterations, n_threads)`` of many
        shards, folded through the schedule's whole-campaign kernel — one
        :meth:`~repro.openmp.schedule.LoopSchedule.simulate_campaign` call
        for the entire chunk, each row bit-identical to folding that row
        alone."""
        costs = self.item_costs_campaign(shards, n_iterations, rng)
        return self.config.schedule.simulate_campaign(costs, self.config.n_threads)

    def application_delays_campaign(
        self, shards: Sequence[tuple], n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Application-level extra delays ``(n_shards, n_iterations,
        n_threads)`` in seconds.

        Models variability that comes from the application rather than the
        OS: cache/bandwidth contention stragglers in MiniFE, neighbour-list
        warm-up in MiniMD, ...  The default is no extra delay.
        """
        return np.zeros((len(shards), n_iterations, self.config.n_threads))

    def finalize_campaign_times(
        self,
        base: np.ndarray,
        shards: Sequence[tuple],
        n_iterations: int,
        rng: np.random.Generator,
        noise: Optional[OSNoiseModel] = None,
    ) -> np.ndarray:
        """Apply delays, jitter and OS noise to a folded busy-time tensor.

        The last step of :meth:`thread_compute_times_campaign`, after the
        schedule fold: the delays, jitter and noise are drawn under the
        ``delays``/``jitter``/``noise`` stage scopes of ``rng``, and the
        jitter and noise of each shard under its own shard scope
        (:func:`stack_shards`), so any partition of the shard axis draws the
        same values.
        """
        with maybe_scope(rng, "delays"):
            extra = self.application_delays_campaign(shards, n_iterations, rng)
        if extra.shape != base.shape:
            raise ValueError(
                "application_delays_campaign must return one value per "
                "(shard, iteration, thread)"
            )
        times = base + extra
        if noise is None:
            return times
        spec = noise.spec
        if spec.enabled and spec.jitter_fraction > 0:
            shape = times.shape[1:]
            with maybe_scope(rng, "jitter"):
                jitter = stack_shards(
                    shards, rng, lambda _: rng.normal(1.0, spec.jitter_fraction, size=shape)
                )
            times = times * np.clip(jitter, 0.5, None)
        with maybe_scope(rng, "noise"):
            delays = stack_shards(
                shards, rng, lambda index: noise.batch_delays(times[index], rng)
            )
        return times + delays

    def thread_compute_times_campaign(
        self,
        *,
        shards: Sequence[tuple],
        rng: np.random.Generator,
        noise: Optional[OSNoiseModel] = None,
        n_iterations: Optional[int] = None,
    ) -> np.ndarray:
        """Measured compute times of many (trial, process) shards at once.

        Returns the ``(n_shards, n_iterations, n_threads)`` tensor with one
        schedule fold over the entire chunk and per-shard scoped jitter and
        noise draws.  Draws are keyed by absolute purpose (``rng`` is
        normally the campaign backend's
        :class:`~repro.sim.random.PurposeSplitRNG`), so any partition of the
        shard axis — serial or across worker processes — produces
        bit-identical samples.
        """
        n_iter = self.config.n_iterations if n_iterations is None else n_iterations
        if n_iter < 1:
            raise ValueError("n_iterations must be >= 1")
        shards = [(int(trial), int(process)) for trial, process in shards]
        with maybe_scope(rng, "state"):
            self.begin_campaign(shards, rng)
        with maybe_scope(rng, "costs"):
            base = self.base_thread_times_campaign(shards, n_iter, rng)
        return self.finalize_campaign_times(base, shards, n_iter, rng, noise)

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Human-readable application description for reports."""
        return {
            "name": self.name,
            "region": self.region,
            "n_threads": self.config.n_threads,
            "n_iterations": self.config.n_iterations,
            "schedule": type(self.config.schedule).__name__,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(threads={self.config.n_threads})"
