"""Pluggable campaign execution backends.

A :class:`CampaignBackend` turns a :class:`~repro.experiments.config.CampaignConfig`
into timing samples.  Backends are registered by name with
:func:`register_backend` and looked up with :func:`get_backend`, so new
execution strategies (cached, distributed, GPU-resident, ...) plug into the
campaign layer without touching it.  Three backends ship with the package:

* ``"vectorized"`` — the application's calibrated work/cost/noise models are
  sampled directly (no event engine).  This is how full paper-scale campaigns
  (768 000 samples per application) complete in seconds.
* ``"event"`` — every thread is a process on the discrete-event engine, the
  entry/exit barriers and every noise preemption happen as events, and the
  timestamps come from the per-core monotonic clocks.  Slower; used by the
  examples and by integration tests that check the backends agree.
* ``"campaign"`` — the whole-campaign tensor kernel: the closed-form math
  lifted from one iteration to *all* (trial, process) shards, sampled as
  ``(n_shards, n_iterations, n_threads)`` arrays — one schedule fold for
  an entire shard chunk, whose sampled tensor is the chunk's column block
  (``chunk_shards`` bounds peak memory).  Draw streams are keyed by
  absolute shard scope, so results are bit-identical across any chunking
  *and any worker count*: with ``max_workers > 1`` whole chunks fold in
  parallel on the executor's worker pool, returning their cubes through
  shared memory (or spilling straight into a
  :class:`~repro.io.shard_store.ShardStore`).  It draws its randomness in a
  different order than ``"vectorized"``, so the two agree in distribution,
  not bit-for-bit, and it pins its own digests.  Every campaign runs on
  its own: a scenario sweep or a queue of service jobs is one
  campaign after another through the executor.

``"vectorized"`` is the readable per-iteration reference, ``"event"`` the
clock/noise microstructure and ``"campaign"`` the production kernel.

Every backend decomposes its campaign into *shards* (:meth:`shard_specs` /
:meth:`run_shard`).  A shard re-derives all of its random streams from the
campaign's root seed by name, which makes shards order-independent: the
parallel executor can run a backend's units of work (:meth:`work_units` /
:meth:`unit_block`: one shard each, or one shard chunk for ``"campaign"``)
in any order on any worker and the merged result stays bit-identical to a
serial run.
"""

from __future__ import annotations

import dataclasses
import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Type

import numpy as np

from repro.apps import get_application
from repro.apps.base import ProxyApplication
from repro.core.aggregation import ColumnBlock, campaign_block, shard_block
from repro.core.instrument import RegionInstrumenter
from repro.core.timing import TimingDataset, TimingShard
from repro.experiments.executor import ShardExecutor
from repro.sim.random import PurposeSplitRNG, RandomStreams

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.experiments.config import CampaignConfig


def build_application(config: "CampaignConfig") -> ProxyApplication:
    """Instantiate the configured application with campaign-sized threading.

    The application's :class:`~repro.apps.base.ApplicationConfig` is replaced
    with a fresh copy (never mutated in place), so campaign sizing can't leak
    into other campaigns sharing an application instance or config object.
    A campaign-level ``schedule`` clause (scenario override) replaces the
    application's default loop schedule.
    """
    app = get_application(config.application)
    overrides = {"n_threads": config.threads, "n_iterations": config.iterations}
    if getattr(config, "schedule", None) is not None:
        from repro.openmp.schedule import schedule_from_name

        overrides["schedule"] = schedule_from_name(config.schedule)
    app.config = dataclasses.replace(app.config, **overrides)
    return app


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """Address of one unit of campaign work.

    ``process is None`` addresses all processes of the trial (used by
    backends that can only shard at trial granularity).
    """

    trial: int
    process: Optional[int] = None


class CampaignBackend(ABC):
    """Execution strategy of a measurement campaign.

    Subclasses implement the shard decomposition (:meth:`shard_specs`) and
    the per-shard execution (:meth:`run_shard`); the base class provides the
    serial drivers (:meth:`run`, :meth:`iter_shards`,
    :meth:`iter_column_blocks`) on top of them.

    The executor (:class:`~repro.experiments.executor.ShardExecutor`) pools
    a campaign's *units of work*: :meth:`work_units` cuts them and
    :meth:`unit_block` produces one unit's column block inside a worker.
    By default a unit is one :meth:`run_shard` shard, as its block;
    a backend whose unit is a whole shard chunk overrides both.
    """

    #: registered backend name (set by :func:`register_backend`)
    name: str = "abstract"

    # ------------------------------------------------------------------
    # shard decomposition
    # ------------------------------------------------------------------
    @abstractmethod
    def shard_specs(self, config: "CampaignConfig") -> List[ShardSpec]:
        """The campaign's shards, in serial (trial-major) order."""

    @abstractmethod
    def run_shard(
        self, config: "CampaignConfig", spec: ShardSpec, streams: RandomStreams
    ) -> TimingShard:
        """Execute one shard.  Must only use streams derived by name from
        ``streams`` so that execution is independent of shard order."""

    # ------------------------------------------------------------------
    # serial drivers
    # ------------------------------------------------------------------
    def iter_shards(
        self, config: "CampaignConfig", streams: Optional[RandomStreams] = None
    ) -> Iterator[TimingShard]:
        """Lazily yield the campaign's shards in serial order."""
        streams = streams if streams is not None else RandomStreams(config.seed)
        for spec in self.shard_specs(config):
            yield self.run_shard(config, spec, streams)

    def iter_column_blocks(
        self, config: "CampaignConfig", streams: Optional[RandomStreams] = None
    ) -> Iterator[ColumnBlock]:
        """Lazily yield the campaign's column blocks in serial order: one
        block per :meth:`iter_shards` shard."""
        for shard in self.iter_shards(config, streams):
            yield shard_block(shard)

    def run(
        self, config: "CampaignConfig", streams: Optional[RandomStreams] = None
    ) -> TimingDataset:
        """Run the whole campaign serially and merge into one dataset."""
        return TimingDataset.merge(
            self.iter_shards(config, streams), metadata=self.metadata(config)
        )

    # ------------------------------------------------------------------
    # units of pooled work
    # ------------------------------------------------------------------
    def work_units(self, config: "CampaignConfig", workers: int) -> List[object]:
        """The picklable units a ``workers``-wide pool runs, in serial
        order: the campaign's shard specs."""
        return self.shard_specs(config)

    def unit_block(self, config: "CampaignConfig", unit) -> ColumnBlock:
        """One unit's column block, built from nothing but ``config`` and
        ``unit`` (it runs in a pool worker): the unit's :meth:`run_shard`
        shard as a block."""
        return shard_block(self.run_shard(config, unit, RandomStreams(config.seed)))

    # ------------------------------------------------------------------
    def metadata(self, config: "CampaignConfig") -> Dict[str, object]:
        """Campaign-level dataset metadata (same content for all backends)."""
        app = build_application(config)
        meta = {
            "application": app.name,
            "region": app.region,
            "trials": config.trials,
            "processes": config.processes,
            "iterations": config.iterations,
            "threads": config.threads,
            "seed": config.seed,
            "backend": config.backend,
            "machine": config.machine.name,
            "noise_enabled": config.machine.noise_spec.enabled,
            **app.describe(),
        }
        if getattr(config, "scenario", None) is not None:
            meta["scenario"] = config.scenario
        return meta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, Type[CampaignBackend]] = {}


def register_backend(name=None, *, replace: bool = False):
    """Class decorator registering a :class:`CampaignBackend` by name.

    Usable bare (``@register_backend`` — uses the class's ``name``) or with
    an explicit name (``@register_backend("my-backend")``).  Registering a
    name twice raises unless ``replace=True`` (or the class is identical,
    which makes module re-imports idempotent).
    """

    def decorator(cls: Type[CampaignBackend]) -> Type[CampaignBackend]:
        if not (isinstance(cls, type) and issubclass(cls, CampaignBackend)):
            raise TypeError("register_backend expects a CampaignBackend subclass")
        key = (name if isinstance(name, str) else cls.name).strip().lower()
        if not key or key == "abstract":
            raise ValueError("backend needs a concrete registration name")
        existing = _BACKENDS.get(key)
        if existing is not None and existing is not cls and not replace:
            raise ValueError(
                f"backend {key!r} is already registered ({existing.__name__}); "
                "pass replace=True to override"
            )
        cls.name = key
        _BACKENDS[key] = cls
        return cls

    if isinstance(name, type):  # bare @register_backend
        cls, name = name, None
        return decorator(cls)
    return decorator


def available_backends() -> Tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> CampaignBackend:
    """Instantiate the backend registered under ``name``."""
    key = str(name).strip().lower()
    try:
        cls = _BACKENDS[key]
    except KeyError:
        raise ValueError(
            f"unknown campaign backend {name!r}; registered backends: "
            f"{', '.join(available_backends()) or '(none)'}"
        ) from None
    return cls()


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (primarily for tests)."""
    _BACKENDS.pop(str(name).strip().lower(), None)


# ----------------------------------------------------------------------
# built-in backends
# ----------------------------------------------------------------------
@register_backend("vectorized")
class VectorizedBackend(CampaignBackend):
    """Closed-form sampling of the calibrated work/cost/noise models.

    Shards at (trial, process) granularity: each shard re-derives that
    process's ``work``/``noise`` streams by name and replays its iterations,
    exactly as the serial nested loop would.
    """

    def shard_specs(self, config: "CampaignConfig") -> List[ShardSpec]:
        return [
            ShardSpec(trial=trial, process=process)
            for trial in range(config.trials)
            for process in range(config.processes)
        ]

    def run_shard(
        self, config: "CampaignConfig", spec: ShardSpec, streams: RandomStreams
    ) -> TimingShard:
        if spec.process is None:
            raise ValueError(f"{self.name} backend shards per process, got {spec}")
        app = build_application(config)
        trial, process = spec.trial, spec.process
        work_rng = streams.get(app.name, "work", trial, process)
        noise_rng = streams.get(app.name, "noise", trial, process)
        noise = config.machine.build_noise_model(noise_rng)
        app.begin_process(process, work_rng)
        times = [
            app.thread_compute_times(
                process=process, iteration=iteration, rng=work_rng, noise=noise
            )
            for iteration in range(config.iterations)
        ]
        block = campaign_block([(trial, process)], np.stack(times)[np.newaxis])
        return next(block.iter_shards())


@register_backend("event")
class EventBackend(CampaignBackend):
    """Discrete-event execution on the simulated OpenMP runtime.

    Shards at trial granularity: the per-trial clock domain draws per-core
    clocks lazily as processes touch their cores, so splitting a trial across
    workers would change the draw order.  Within a shard the processes run in
    serial order, which keeps results bit-identical to a fully serial run.

    Noise is served from a :class:`~repro.cluster.noise.WindowedNoiseModel`:
    each (core, trial) owns one pre-generated event timeline extended a whole
    window at a time, so ``run_region`` stops drawing noise events iteration
    by iteration — region execution queries the cached timeline instead.
    (Adopting the windowed model changed the backend's noise draw order, so
    its reference digest was re-recorded; distributional agreement with the
    vectorized path is unchanged.)
    """

    def shard_specs(self, config: "CampaignConfig") -> List[ShardSpec]:
        return [ShardSpec(trial=trial) for trial in range(config.trials)]

    def run_shard(
        self, config: "CampaignConfig", spec: ShardSpec, streams: RandomStreams
    ) -> TimingShard:
        # imported here: the OpenMP runtime is only needed by this backend
        from repro.openmp.runtime import OpenMPRuntime
        from repro.openmp.team import ThreadTeam

        app = build_application(config)
        cluster = config.machine.build_cluster()
        placements = cluster.place_processes(config.processes, config.threads)
        instrumenter = RegionInstrumenter(region=app.region, application=app.name)
        trial = spec.trial
        clock_domain = config.machine.build_clock_domain(streams.get("clocks", trial))
        for process in range(config.processes):
            work_rng = streams.get(app.name, "work", trial, process)
            noise_rng = streams.get(app.name, "noise", trial, process)
            team_rng = streams.get(app.name, "team", trial, process)
            # windowed: one pre-generated noise timeline per (core, trial)
            # window instead of a fresh draw per delay query
            noise = config.machine.build_noise_model(noise_rng, windowed=True)
            app.begin_process(process, work_rng)
            team = ThreadTeam(placements[process], clock_domain, noise, rng=team_rng)
            runtime = OpenMPRuntime(team)
            for iteration in range(config.iterations):
                costs = app.item_costs(process, iteration, work_rng)
                delays = app.application_delays(process, iteration, work_rng)
                execution = runtime.run_region(
                    costs,
                    schedule=app.config.schedule,
                    region=app.region,
                    iteration=iteration,
                    detailed=True,
                )
                # application-level delays act after the loop body (e.g. a
                # straggler thread's extra stall) — add them to the recorded
                # exit timestamps
                for thread in execution.threads:
                    extra_ns = int(round(delays[thread.thread_id] * 1e9))
                    instrumenter.record_thread(
                        trial=trial,
                        process=process,
                        iteration=iteration,
                        thread=thread.thread_id,
                        start_ns=thread.start_ns,
                        end_ns=thread.end_ns + extra_ns,
                    )
        return TimingShard.from_dataset(
            instrumenter.dataset(), trial=trial, process=None
        )


# ----------------------------------------------------------------------
# chunk plumbing of the campaign tensor backend
#
# Pool workers rebuild the whole execution context from the picklable
# CampaignConfig: the shard-keyed PurposeSplitRNG makes a chunk's draws
# depend only on which shards it contains, so any worker can fold any chunk
# and the assembled campaign is bit-identical to a serial run.  A chunk's
# sampled (n_shards, n_iterations, n_threads) tensor is its block's cube;
# the executor's pool driver moves the cubes (shared memory in process
# mode) or spills them straight into a ShardStore.
# ----------------------------------------------------------------------
#: per-worker execution-context cache.  Pool workers are reused across
#: chunks, so rebuilding the application per chunk would redo its one-time
#: setup — cost calibration, the deterministic busy-row fold MiniFE caches
#: on the app instance — for every chunk, costing more than the fold
#: itself.  Keyed by config equality; thread-local so thread-pool workers
#: never share a PurposeSplitRNG (its scope stack is mutable).  Reusing a
#: context is bit-identical to a fresh one: the shard-keyed draw streams
#: make every draw depend only on its absolute scope path.
_WORKER_STATE = threading.local()
_WORKER_CONTEXT_SLOTS = 8


def _worker_context(config: "CampaignConfig") -> tuple:
    cache = getattr(_WORKER_STATE, "contexts", None)
    if cache is None:
        cache = _WORKER_STATE.contexts = []
    for cached, context in cache:
        if cached == config:
            return context
    context = CampaignTensorBackend()._context(config, None)
    cache.append((config, context))
    if len(cache) > _WORKER_CONTEXT_SLOTS:
        cache.pop(0)
    return context


@register_backend("campaign")
class CampaignTensorBackend(CampaignBackend):
    """Whole-campaign tensor sampling: every shard in one (chunked) pass.

    All (trial, process) shards of a campaign are sampled together as
    ``(n_shards, n_iterations, n_threads)`` arrays — one schedule fold
    through :meth:`~repro.openmp.schedule.LoopSchedule.simulate_campaign`
    per chunk, whose tensor is the chunk's block's cube as sampled
    (:func:`~repro.core.aggregation.campaign_block`).  ``chunk_shards``
    bounds how many shards are resident at once; the results are
    **bit-identical for every chunking and every worker count** because
    all draws run through the shard-keyed
    :class:`~repro.sim.random.PurposeSplitRNG` — a draw's value depends
    only on its absolute (scope path, method, occurrence) identity, never
    on what folded before it.

    Randomness is necessarily ordered differently than ``"vectorized"``
    (per iteration), so this backend agrees with it in distribution —
    property-tested — while pinning its own smoke digests.  The schedule
    fold itself keeps per-row bit-identity with the per-iteration
    ``simulate``.

    The campaign is one unit of work per *chunk*, not per shard, so
    :meth:`run_shard` is unavailable by construction: :meth:`work_units`
    cuts the campaign into chunks and :meth:`unit_block` folds one, and the
    executor's pool runs them for a parallel session and :meth:`run` alike.
    """

    #: default shard-chunk size: large enough that benchmark-scale campaigns
    #: (4 shards) run in one pass, small enough that a paper-scale MiniFE
    #: campaign never materialises more than ~0.5 GB of cost tensor
    DEFAULT_CHUNK_SHARDS = 8

    def __init__(self, chunk_shards: Optional[int] = None) -> None:
        if chunk_shards is not None and chunk_shards < 1:
            raise ValueError("chunk_shards must be >= 1")
        self.chunk_shards = (
            int(chunk_shards) if chunk_shards is not None else self.DEFAULT_CHUNK_SHARDS
        )

    # ------------------------------------------------------------------
    def shard_specs(self, config: "CampaignConfig") -> List[ShardSpec]:
        return [
            ShardSpec(trial=trial, process=process)
            for trial in range(config.trials)
            for process in range(config.processes)
        ]

    def run_shard(
        self, config: "CampaignConfig", spec: ShardSpec, streams: RandomStreams
    ) -> TimingShard:
        raise NotImplementedError(
            "the campaign backend samples whole campaigns, not single shards; "
            "use iter_shards()/run() (the executor's serial path does)"
        )

    # ------------------------------------------------------------------
    def _context(self, config: "CampaignConfig", streams: Optional[RandomStreams]):
        """Per-campaign execution context: app, purpose rng, noise model."""
        streams = streams if streams is not None else RandomStreams(config.seed)
        app = build_application(config)
        rng = PurposeSplitRNG(streams, app.name, "campaign")
        noise = config.machine.build_noise_model(
            streams.get(app.name, "campaign-noise-model")
        )
        shards = [(spec.trial, spec.process) for spec in self.shard_specs(config)]
        return app, rng, noise, shards

    def _serial_chunks(
        self, config: "CampaignConfig", streams: Optional[RandomStreams] = None
    ) -> Iterator[Tuple[ProxyApplication, List[Tuple[int, int]], np.ndarray]]:
        """Sample the campaign one chunk at a time, in trial-major order:
        yields ``(app, chunk, times)``."""
        app, rng, noise, shards = self._context(config, streams)
        for start in range(0, len(shards), self.chunk_shards):
            chunk = shards[start : start + self.chunk_shards]
            times = app.thread_compute_times_campaign(
                shards=chunk, rng=rng, noise=noise
            )
            yield app, chunk, times

    def iter_column_blocks(
        self, config: "CampaignConfig", streams: Optional[RandomStreams] = None
    ) -> Iterator[ColumnBlock]:
        """One block per chunk, in trial-major order: the chunk's sampled
        tensor is the block's cube."""
        for _, chunk, times in self._serial_chunks(config, streams):
            yield campaign_block(chunk, times)

    def iter_shards(
        self, config: "CampaignConfig", streams: Optional[RandomStreams] = None
    ) -> Iterator[TimingShard]:
        """Yield the campaign's shards, sampled a whole chunk at a time
        (lazy views of :meth:`iter_column_blocks`)."""
        for block in self.iter_column_blocks(config, streams):
            yield from block.iter_shards()

    def run(
        self,
        config: "CampaignConfig",
        streams: Optional[RandomStreams] = None,
        *,
        mode: str = "process",
    ) -> TimingDataset:
        """Run the whole campaign and merge it into one dataset.

        ``config.max_workers > 1`` folds the chunks on the executor's
        worker pool (``mode``: ``"process"`` or ``"thread"``) —
        bit-identical to serial thanks to the shard-keyed draw streams.
        Passing explicit ``streams`` forces the serial path (workers
        rebuild their streams from ``config.seed``).
        """
        if streams is None and config.max_workers > 1:
            blocks = ShardExecutor(mode=mode).iter_blocks(self, config)
        else:
            blocks = self.iter_column_blocks(config, streams)
        shards = (shard for block in blocks for shard in block.iter_shards())
        return TimingDataset.merge(shards, metadata=self.metadata(config))

    # ------------------------------------------------------------------
    # units of pooled work: shard chunks
    # ------------------------------------------------------------------
    def _parallel_chunk_size(self, n_shards: int, workers: int) -> int:
        """Effective chunk size of a parallel run: never above
        ``chunk_shards`` (the memory bound), shrunk so every worker gets at
        least one chunk.  Any chunking is bit-identical, so splitting finer
        only trades a little assembly overhead for parallel coverage."""
        per_worker = -(-n_shards // workers)  # ceil
        return max(1, min(self.chunk_shards, per_worker))

    def work_units(
        self, config: "CampaignConfig", workers: int
    ) -> List[List[Tuple[int, int]]]:
        """The shard chunks a ``workers``-wide pool folds, in trial-major
        order (sized by :meth:`_parallel_chunk_size`)."""
        shards = [(spec.trial, spec.process) for spec in self.shard_specs(config)]
        workers = max(1, min(int(workers), len(shards)))
        size = self._parallel_chunk_size(len(shards), workers)
        return [shards[start : start + size] for start in range(0, len(shards), size)]

    def unit_block(self, config: "CampaignConfig", chunk) -> ColumnBlock:
        """Fold one shard chunk into its block, under the per-worker
        context cache."""
        app, rng, noise, _ = _worker_context(config)
        chunk = [tuple(shard) for shard in chunk]
        times = app.thread_compute_times_campaign(shards=chunk, rng=rng, noise=noise)
        return campaign_block(chunk, times)
