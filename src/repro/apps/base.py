"""Common interface of the proxy applications.

A :class:`ProxyApplication` answers two questions for the campaign runner:

* ``item_costs(process, iteration, rng)`` — the pure compute cost of every
  iteration of the *timed loop* (the unit the OpenMP schedule distributes);
  used by the detailed (discrete-event) execution path.
* ``thread_compute_times(...)`` — the per-thread compute time of one
  process-iteration including application-level variability, execution
  jitter and OS noise; used by the vectorised campaign path.
* ``thread_compute_times_campaign(...)`` — the same for a whole chunk of
  (trial, process) shards as one ``(shards, iterations, threads)`` tensor;
  used by the campaign tensor backend.

Both paths share the same underlying work decomposition, so they agree in
distribution; the integration tests check that the closed-form path matches
the event-driven path exactly when noise is disabled.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cluster.noise import OSNoiseModel
from repro.cluster.topology import Core
from repro.openmp.schedule import LoopSchedule, StaticSchedule
from repro.sim.random import maybe_scope


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
    # per-process lifecycle
    # ------------------------------------------------------------------
    def begin_process(self, process: int, rng: np.random.Generator) -> None:
        """Hook invoked once per (trial, process) before its iterations run.

        Applications that carry per-process state across iterations (e.g.
        MiniQMC's walker population, whose composition sets that process's
        mover-time statistics for the whole trial) draw it here.  The default
        is stateless.
        """

    # ------------------------------------------------------------------
    # work decomposition
    # ------------------------------------------------------------------
    @abstractmethod
    def item_costs(
        self, process: int, iteration: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Pure compute cost (seconds) of every item of the timed loop."""

    def base_thread_times(
        self, process: int, iteration: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-thread pure compute time under the configured loop schedule."""
        costs = self.item_costs(process, iteration, rng)
        outcome = self.config.schedule.simulate(costs, self.config.n_threads)
        return outcome.busy_time

    def application_delays(
        self, process: int, iteration: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Application-level per-thread extra delays (seconds).

        Models variability that comes from the application rather than the
        OS: cache/bandwidth contention stragglers in MiniFE, neighbour-list
        warm-up in MiniMD, ...  The default is no extra delay.
        """
        return np.zeros(self.config.n_threads)

    # ------------------------------------------------------------------
    # per-shard planes (stacked by the default campaign hooks)
    # ------------------------------------------------------------------
    def item_costs_batch(
        self, process: int, n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Cost matrix ``(n_iterations, n_items)`` of a whole shard's loops.

        The default stacks per-iteration :meth:`item_costs` calls (same
        draws, same order); applications whose per-iteration randomness
        factors into a single distribution override this with one 2-D draw
        so an entire (trial, process) shard costs a handful of NumPy calls.
        """
        return np.stack(
            [self.item_costs(process, it, rng) for it in range(n_iterations)]
        )

    def application_delays_batch(
        self, process: int, n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Application-level delays ``(n_iterations, n_threads)`` of a shard.

        The default stacks per-iteration :meth:`application_delays` calls.
        """
        return np.stack(
            [self.application_delays(process, it, rng) for it in range(n_iterations)]
        )

    # ------------------------------------------------------------------
    # whole-campaign tensor decomposition (the ``"campaign"`` backend)
    # ------------------------------------------------------------------
    def begin_campaign(
        self, shards: Sequence[tuple], rng: np.random.Generator
    ) -> None:
        """Hook invoked once per shard chunk before its campaign draws.

        The chunk analogue of :meth:`begin_process` for ``shards``, a
        sequence of ``(trial, process)`` pairs.  The default calls
        :meth:`begin_process` for every shard under its absolute
        ``("shard", trial, process)`` scope, so chunking cannot change the
        draws.  All of a chunk's shards begin before any cost is drawn, so
        the default per-shard plane hooks re-begin each shard's state right
        before drawing its planes (:meth:`_resume_shard`).  Applications
        that draw every shard's state in one go (MiniQMC's walker
        populations) override this and keep one state per shard.
        """
        for trial, process in shards:
            with maybe_scope(rng, "shard", int(trial), int(process)):
                self.begin_process(int(process), rng)

    def _resume_shard(self, rng: np.random.Generator, trial: int, process: int) -> None:
        """Make one shard's :meth:`begin_process` state current again.

        Replays ``begin_process`` under the shard's original
        ``("state", "shard", trial, process)`` path, which restores exactly
        the state the default :meth:`begin_campaign` began it with.  A no-op
        for stateless apps, for apps that override :meth:`begin_campaign`
        and for plain ``Generator`` callers.
        """
        cls = type(self)
        if (
            cls.begin_process is ProxyApplication.begin_process
            or cls.begin_campaign is not ProxyApplication.begin_campaign
            or not hasattr(rng, "rooted")
        ):
            return
        with rng.rooted("state"), rng.scope("shard", trial, process):
            self.begin_process(process, rng)

    def item_costs_campaign(
        self, shards: Sequence[tuple], n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Cost tensor ``(n_shards, n_iterations, n_items)`` of many shards.

        The default stacks :meth:`item_costs_batch` planes, each under its
        absolute ``("shard", trial, process)`` scope, so chunking the shard
        axis cannot change the draws.  The planes must share one item
        count: applications whose loop length differs per process can only
        run on the per-iteration ``"vectorized"`` backend.
        """
        planes = []
        for trial, process in shards:
            self._resume_shard(rng, int(trial), int(process))
            with maybe_scope(rng, "shard", int(trial), int(process)):
                planes.append(self.item_costs_batch(int(process), n_iterations, rng))
        if len({plane.shape for plane in planes}) > 1:
            raise ValueError(
                f"application {self.name!r} has item counts that differ per "
                "process, which the campaign backend's shard-stacked cost "
                "tensor cannot hold; run it on the 'vectorized' backend"
            )
        return np.stack(planes)

    def base_thread_times_campaign(
        self, shards: Sequence[tuple], n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Pure compute times ``(n_shards, n_iterations, n_threads)`` of many
        shards, folded through the schedule's whole-campaign kernel — one
        :meth:`~repro.openmp.schedule.LoopSchedule.simulate_campaign` call
        for the entire chunk, each plane bit-identical to the per-shard
        ``simulate_batch`` fold."""
        costs = self.item_costs_campaign(shards, n_iterations, rng)
        return self.config.schedule.simulate_campaign(costs, self.config.n_threads)

    def application_delays_campaign(
        self, shards: Sequence[tuple], n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Application delays ``(n_shards, n_iterations, n_threads)``.

        The default stacks :meth:`application_delays_batch` planes under
        absolute per-shard scopes (chunk-invariant).
        """
        planes = []
        for trial, process in shards:
            self._resume_shard(rng, int(trial), int(process))
            with maybe_scope(rng, "shard", int(trial), int(process)):
                planes.append(
                    self.application_delays_batch(int(process), n_iterations, rng)
                )
        return np.stack(planes)

    def _apply_campaign_noise(
        self,
        times: np.ndarray,
        shards: Sequence[tuple],
        rng: np.random.Generator,
        noise: Optional[OSNoiseModel],
    ) -> np.ndarray:
        """Apply execution jitter and OS noise plane by plane.

        Each shard's jitter and noise draws sit under its absolute
        ``("shard", trial, process)`` scope (nested inside the ``"jitter"`` /
        ``"noise"`` stage scopes), so a shard's samples depend only on its
        own identity — the invariant that lets chunks run in any order, in
        any partition, on any worker, and still assemble bit-identically.
        """
        if noise is None:
            return times
        if noise.spec.enabled and noise.spec.jitter_fraction > 0:
            jitter = np.empty_like(times)
            with maybe_scope(rng, "jitter"):
                for index, (trial, process) in enumerate(shards):
                    with maybe_scope(rng, "shard", int(trial), int(process)):
                        jitter[index] = rng.normal(
                            1.0, noise.spec.jitter_fraction, size=times.shape[1:]
                        )
            times = times * np.clip(jitter, 0.5, None)
        delays = np.empty_like(times)
        with maybe_scope(rng, "noise"):
            for index, (trial, process) in enumerate(shards):
                with maybe_scope(rng, "shard", int(trial), int(process)):
                    delays[index] = noise.batch_delays(times[index], rng)
        return times + delays

    def finalize_campaign_times(
        self,
        base: np.ndarray,
        shards: Sequence[tuple],
        n_iterations: int,
        rng: np.random.Generator,
        noise: Optional[OSNoiseModel] = None,
    ) -> np.ndarray:
        """Apply delays, jitter and OS noise to a folded busy-time tensor.

        Split out of :meth:`thread_compute_times_campaign` so grouped
        executions (several compatible configs sharing one schedule fold —
        ``ScenarioMatrix`` sweeps, coalesced service jobs) can hoist the fold
        and still draw each config's delays/jitter/noise under the exact
        scopes a solo run uses, keeping grouped results bit-identical to
        per-config runs.
        """
        with maybe_scope(rng, "delays"):
            extra = self.application_delays_campaign(shards, n_iterations, rng)
        if extra.shape != base.shape:
            raise ValueError(
                "application_delays_campaign must return one value per "
                "(shard, iteration, thread)"
            )
        return self._apply_campaign_noise(base + extra, shards, rng, noise)

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
        bit-identical samples.  Applications that only implement the
        per-shard hooks run through the same driver: the default
        ``*_campaign`` hooks stack their planes.
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
    # sampling (vectorised campaign path)
    # ------------------------------------------------------------------
    def thread_compute_times(
        self,
        *,
        process: int,
        iteration: int,
        rng: np.random.Generator,
        noise: Optional[OSNoiseModel] = None,
        cores: Optional[Sequence[Core]] = None,
        region_start_s: float = 0.0,
    ) -> np.ndarray:
        """Per-thread measured compute time of one process-iteration.

        Combines the schedule's per-thread busy time, application-level
        delays, execution jitter and OS-noise preemptions.
        """
        base = self.base_thread_times(process, iteration, rng)
        extra = self.application_delays(process, iteration, rng)
        if extra.shape != base.shape:
            raise ValueError("application_delays must return one value per thread")
        times = base + extra
        if noise is not None:
            if noise.spec.enabled and noise.spec.jitter_fraction > 0:
                jitter = rng.normal(1.0, noise.spec.jitter_fraction, size=times.shape)
                times = times * np.clip(jitter, 0.5, None)
            if cores is not None:
                # exact per-core noise (event-path parity)
                if len(cores) != len(times):
                    raise ValueError("need exactly one core per thread")
                times = times + np.array(
                    [
                        noise.delay_over(core, region_start_s, float(times[t]))
                        for t, core in enumerate(cores)
                    ]
                )
            else:
                # statistically equivalent vectorised noise (campaign fast path)
                times = times + noise.batch_delays(times, rng)
        return times

    # ------------------------------------------------------------------
    # reference kernel
    # ------------------------------------------------------------------
    @abstractmethod
    def run_reference_kernel(self, rng: np.random.Generator) -> Dict[str, float]:
        """Execute a reduced-scale version of the timed kernel.

        Returns a dictionary of checkable quantities (norms, energies, ...).
        Used by unit tests and by the quickstart example to show that the
        simulated work models correspond to real numerical kernels.
        """

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
