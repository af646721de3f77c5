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
  ``(n_shards, n_iterations, n_threads)`` arrays — one schedule fold and
  one columnar instrumenter assembly for an entire shard chunk
  (``chunk_shards`` bounds peak memory).  Draw streams are keyed by
  absolute shard scope, so results are bit-identical across any chunking
  *and any worker count*: with ``max_workers > 1`` whole chunks fold in
  parallel on a process pool, returning their columns through shared
  memory (or spilling straight into a
  :class:`~repro.io.shard_store.ShardStore`).  It draws its randomness in a
  different order than ``"vectorized"``, so the two agree in distribution,
  not bit-for-bit, and it pins its own digests.
  :meth:`CampaignTensorBackend.run_many` additionally lets several
  compatible campaigns (scenario-matrix sweeps, concurrent service jobs)
  share one tensor execution.

``"vectorized"`` is the readable per-iteration reference, ``"event"`` the
clock/noise microstructure and ``"campaign"`` the production kernel.

Every backend decomposes its campaign into *shards* (:meth:`shard_specs` /
:meth:`run_shard`).  A shard re-derives all of its random streams from the
campaign's root seed by name, which makes shards order-independent: the
parallel executor can run them in any order on any worker and the merged
result stays bit-identical to a serial run.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import threading
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Type

import numpy as np

from repro.apps import get_application
from repro.apps.base import ProxyApplication
from repro.core.instrument import RegionInstrumenter
from repro.core.timing import TimingDataset, TimingShard
from repro.sim.random import PurposeSplitRNG, RandomStreams, maybe_scope

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
    serial drivers (:meth:`run`, :meth:`iter_shards`) on top of them.

    A backend whose unit of work is a whole shard chunk rather than a shard
    defines ``iter_shards_parallel``; the parallel executor then hands it
    the worker count instead of fanning single shards out across its pool.
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

    def run(
        self, config: "CampaignConfig", streams: Optional[RandomStreams] = None
    ) -> TimingDataset:
        """Run the whole campaign serially and merge into one dataset."""
        return TimingDataset.merge(
            self.iter_shards(config, streams), metadata=self.metadata(config)
        )

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
        instrumenter = RegionInstrumenter(region=app.region, application=app.name)
        for iteration in range(config.iterations):
            times = app.thread_compute_times(
                process=process,
                iteration=iteration,
                rng=work_rng,
                noise=noise,
            )
            instrumenter.record_compute_times(
                trial=trial,
                process=process,
                iteration=iteration,
                compute_times_s=times,
            )
        return TimingShard.from_dataset(
            instrumenter.dataset(), trial=trial, process=process
        )


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


def campaign_group_key(config: "CampaignConfig") -> Tuple:
    """Grouping key for campaigns that can share one tensor execution.

    Two configs with equal keys run the same application geometry under the
    same loop schedule for the same number of iterations and threads — so
    their cost tensors concatenate along the shard axis and fold through
    *one* ``simulate_campaign`` call.  Seeds, machines and noise profiles may
    differ freely: every draw comes from per-config purpose streams, so
    grouped execution stays bit-identical to per-config runs.
    """
    schedule = getattr(config, "schedule", None)
    normalized = str(schedule).strip().lower() if schedule is not None else None
    return (config.application, config.threads, config.iterations, normalized)


# ----------------------------------------------------------------------
# chunk-parallel plumbing of the campaign tensor backend
#
# Workers are module-level functions (picklable) that rebuild the whole
# execution context from the picklable CampaignConfig: the shard-keyed
# PurposeSplitRNG makes a chunk's draws depend only on which shards it
# contains, so any worker can fold any chunk and the assembled campaign is
# bit-identical to a serial run.  Process workers ship their columns back
# through one multiprocessing.shared_memory segment per chunk (created only
# *after* the fold succeeds, so a crashed fold leaves nothing in /dev/shm)
# instead of pickling (n_shards, n_iterations, n_threads)-sized arrays —
# the parent attaches, copies the columns once, and unlinks.  When spilling
# out of core, workers skip the parent entirely and write their chunk
# straight into the ShardStore's on-disk group format.
# ----------------------------------------------------------------------
def _make_pool(mode: str, workers: int):
    if mode == "thread":
        return ThreadPoolExecutor(max_workers=workers)
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = None
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def _chunk_columns(
    app: ProxyApplication, chunk: List[Tuple[int, int]], times: np.ndarray
) -> Dict[str, np.ndarray]:
    """Assemble one chunk's full column block (the zero-copy unit shipped
    between processes and appended via ``record_columns``)."""
    instrumenter = RegionInstrumenter(region=app.region, application=app.name)
    instrumenter.record_campaign(shards=chunk, compute_times_s=times)
    dataset = instrumenter.dataset()
    return {name: dataset.column(name) for name in dataset.columns}


def _slice_chunk_shards(
    chunk: List[Tuple[int, int]], columns: Dict[str, np.ndarray], per_shard: int
) -> List[TimingShard]:
    """Per-shard column views out of one chunk's assembled block."""
    shards = []
    for index, (trial, process) in enumerate(chunk):
        rows = slice(index * per_shard, (index + 1) * per_shard)
        shards.append(
            TimingShard(
                trial=trial,
                process=process,
                columns={name: array[rows] for name, array in columns.items()},
            )
        )
    return shards


def _pack_blocks(
    blocks: List[Dict[str, np.ndarray]],
) -> Tuple[str, List[List[Tuple[str, str, Tuple[int, ...], int]]]]:
    """Pack column blocks into one shared-memory segment (worker side).

    Returns the segment name plus per-block ``(column, dtype, shape,
    offset)`` descriptors.  Created only after the fold finished, so a
    worker that dies mid-fold never leaves a segment behind.
    """
    total = sum(
        np.ascontiguousarray(array).nbytes
        for block in blocks
        for array in block.values()
    )
    segment = shared_memory.SharedMemory(create=True, size=max(1, total))
    # The parent's attach re-registers the segment with the (fork-shared)
    # resource tracker and its unlink unregisters it, so drop the creation
    # registration here — otherwise the tracker double-counts and warns
    # about a "leaked" segment at shutdown.
    resource_tracker.unregister(segment._name, "shared_memory")
    try:
        descriptors: List[List[Tuple[str, str, Tuple[int, ...], int]]] = []
        offset = 0
        for block in blocks:
            entries = []
            for name in sorted(block):
                array = np.ascontiguousarray(block[name])
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=segment.buf, offset=offset
                )
                view[...] = array
                entries.append((name, array.dtype.str, array.shape, offset))
                offset += array.nbytes
            descriptors.append(entries)
        return segment.name, descriptors
    finally:
        segment.close()


def _unpack_blocks(segment_name: str, descriptors) -> List[Dict[str, np.ndarray]]:
    """Copy packed column blocks out of shared memory and unlink it (parent
    side).  One copy per column — the fork-shared resource tracker then
    forgets the segment cleanly."""
    segment = shared_memory.SharedMemory(name=segment_name)
    try:
        blocks = []
        for entries in descriptors:
            block = {}
            for name, dtype, shape, offset in entries:
                view = np.ndarray(
                    tuple(shape),
                    dtype=np.dtype(dtype),
                    buffer=segment.buf,
                    offset=offset,
                )
                block[name] = view.copy()
            blocks.append(block)
        return blocks
    finally:
        segment.close()
        segment.unlink()


def _discard_shm(segment_name: str) -> None:
    """Unlink an undelivered worker segment (cancelled consumer)."""
    try:
        segment = shared_memory.SharedMemory(name=segment_name)
    except FileNotFoundError:
        return
    segment.close()
    segment.unlink()


def _discard_shm_result(result) -> None:
    _discard_shm(result[0])


def _discard_payload_result(result) -> None:
    Path(result[0]).unlink(missing_ok=True)


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


def _campaign_chunk_columns(
    config: "CampaignConfig", chunk: List[Tuple[int, int]]
) -> Dict[str, np.ndarray]:
    """Fold one shard chunk and assemble its column block (worker body)."""
    app, rng, noise, _ = _worker_context(config)
    chunk = [tuple(shard) for shard in chunk]
    times = app.thread_compute_times_campaign(shards=chunk, rng=rng, noise=noise)
    return _chunk_columns(app, chunk, times)


def _run_campaign_chunk_shm(config: "CampaignConfig", chunk):
    """Process-pool worker: fold a chunk, ship its columns via shared memory."""
    return _pack_blocks([_campaign_chunk_columns(config, chunk)])


def _chunk_slices(chunk: List[Tuple[int, int]], per_shard: int):
    """One :class:`~repro.core.aggregation.ShardSlice` per chunk shard."""
    from repro.core.aggregation import ShardSlice

    return [
        ShardSlice(
            trial=trial,
            process=process,
            start=index * per_shard,
            stop=(index + 1) * per_shard,
        )
        for index, (trial, process) in enumerate(chunk)
    ]


def _campaign_chunk_partials(config: "CampaignConfig", chunk, mapper):
    """Worker body of the fused execute-and-analyse path: fold one chunk and
    apply a columnar block mapper to it in place.

    Only the mapper's per-shard results (analysis-pass partial states)
    travel back to the parent — no shard assembly, no shared-memory copy of
    the sample columns at all."""
    chunk = [tuple(shard) for shard in chunk]
    columns = _campaign_chunk_columns(config, chunk)
    per_shard = config.iterations * config.threads
    return mapper(columns, _chunk_slices(chunk, per_shard))


def _spill_campaign_chunk(config: "CampaignConfig", chunk, store_dir: str, tag: int):
    """Process-pool worker: fold a chunk and spill it as a finished
    shard-store group payload — the arrays never travel to the parent."""
    from repro.io.shard_store import write_group_payload

    columns = _campaign_chunk_columns(config, chunk)
    per_shard = config.iterations * config.threads
    shards = _slice_chunk_shards([tuple(s) for s in chunk], columns, per_shard)
    path = Path(store_dir) / f"chunk-{tag:05d}-{os.getpid()}.payload"
    entry = write_group_payload(path, shards)
    return str(path), entry


def _fold_group_chunk(group: List["CampaignConfig"], chunk_entries, context=None):
    """One chunk of a *grouped* execution: the shared per-chunk body of the
    serial ``CampaignTensorBackend._run_group`` and of its pool workers.

    ``chunk_entries`` are ``(config_index, (trial, process))`` pairs, split
    here into per-config contiguous segments.  Every segment draws its cost
    planes, one ``simulate_campaign`` folds all of them, and each segment is
    finalized under its own config's purpose streams.  ``context`` maps a
    config index to its ``(app, rng, noise, shards)`` context; workers
    default to the per-worker :func:`_worker_context` cache.  Returns
    ``(config_index, shards, columns)`` triples.
    """
    if context is None:
        def context(config_index: int):
            return _worker_context(group[config_index])

    n_iterations = group[0].iterations
    n_threads = group[0].threads
    segments: List[Tuple[int, List[Tuple[int, int]]]] = []
    for config_index, shard in chunk_entries:
        if segments and segments[-1][0] == config_index:
            segments[-1][1].append(tuple(shard))
        else:
            segments.append((config_index, [tuple(shard)]))
    cost_planes: List[np.ndarray] = []
    for config_index, shards in segments:
        app, rng, _, _ = context(config_index)
        with maybe_scope(rng, "state"):
            app.begin_campaign(shards, rng)
        with maybe_scope(rng, "costs"):
            costs = app.item_costs_campaign(shards, n_iterations, rng)
        cost_planes.append(np.asarray(costs, dtype=np.float64))
    # the shared fold: deterministic, plane-bit-identical to per-config folds
    schedule = context(segments[0][0])[0].config.schedule
    busy_all = schedule.simulate_campaign(
        np.concatenate(cost_planes, axis=0), n_threads
    )
    results = []
    offset = 0
    for config_index, shards in segments:
        app, rng, noise, _ = context(config_index)
        base = busy_all[offset : offset + len(shards)]
        offset += len(shards)
        times = app.finalize_campaign_times(base, shards, n_iterations, rng, noise)
        results.append((config_index, shards, _chunk_columns(app, shards, times)))
    return results


def _fold_group_chunk_shm(group: List["CampaignConfig"], chunk_entries):
    """Process-pool worker: a grouped chunk's segments, packed in one
    shared-memory segment."""
    results = _fold_group_chunk(group, chunk_entries)
    segment_name, descriptors = _pack_blocks(
        [columns for _, _, columns in results]
    )
    meta = [(config_index, shards) for config_index, shards, _ in results]
    return meta, segment_name, descriptors


@register_backend("campaign")
class CampaignTensorBackend(CampaignBackend):
    """Whole-campaign tensor sampling: every shard in one (chunked) pass.

    All (trial, process) shards of a campaign are sampled together as
    ``(n_shards, n_iterations, n_threads)`` arrays — one schedule fold
    through :meth:`~repro.openmp.schedule.LoopSchedule.simulate_campaign`
    and one columnar
    :meth:`~repro.core.instrument.RegionInstrumenter.record_campaign`
    assembly per chunk.  ``chunk_shards`` bounds how many shards are
    resident at once; the results are **bit-identical for every chunking
    and every worker count** because all draws run through the shard-keyed
    :class:`~repro.sim.random.PurposeSplitRNG` — a draw's value depends
    only on its absolute (scope path, method, occurrence) identity, never
    on what folded before it.

    Randomness is necessarily ordered differently than ``"vectorized"``
    (per iteration), so this backend agrees with it in distribution —
    property-tested — while pinning its own smoke digests.  The schedule
    fold itself keeps per-row bit-identity with ``simulate_batch`` /
    ``simulate``.

    The campaign is one unit of work per *chunk*, not per shard, so
    :meth:`run_shard` is unavailable by construction and the executor
    hands parallel runs to :meth:`iter_shards_parallel` instead of fanning
    shards out: it, the parallel :meth:`run` and :meth:`run_many` fold
    whole chunks on a worker pool and ship the columns back through shared
    memory (or straight into a :class:`~repro.io.shard_store.ShardStore`
    when spilling).
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

    def iter_shards(
        self, config: "CampaignConfig", streams: Optional[RandomStreams] = None
    ) -> Iterator[TimingShard]:
        """Yield the campaign's shards, sampled a whole chunk at a time."""
        per_shard = config.iterations * config.threads
        for app, chunk, times in self._serial_chunks(config, streams):
            columns = _chunk_columns(app, chunk, times)
            yield from _slice_chunk_shards(chunk, columns, per_shard)

    def run(
        self,
        config: "CampaignConfig",
        streams: Optional[RandomStreams] = None,
        *,
        mode: str = "process",
    ) -> TimingDataset:
        """Run the whole campaign as one columnar assembly.

        Chunks append straight into a single instrumenter — no per-shard
        column slicing, no merge re-concatenation.  Shards are produced in
        trial-major order, so the rows equal the merged :meth:`iter_shards`
        stream bit-for-bit; only the assembly cost differs.

        ``config.max_workers > 1`` folds the chunks on a worker pool
        (``mode`` as in the executor: ``"process"`` or ``"thread"``) —
        bit-identical to serial thanks to the shard-keyed draw streams.
        Passing explicit ``streams`` forces the serial path (workers
        rebuild their streams from ``config.seed``).
        """
        meta = self.metadata(config)
        instrumenter = RegionInstrumenter(
            region=meta["region"], application=meta["application"], metadata=meta
        )
        workers = int(getattr(config, "max_workers", 1) or 1)
        parallel = streams is None and workers > 1
        chunks = self._parallel_chunks(config, workers) if parallel else []
        if len(chunks) > 1:
            for columns in self._iter_parallel_columns(
                config, chunks, min(workers, len(chunks)), mode
            ):
                instrumenter.record_columns(columns)
        else:
            for _, chunk, times in self._serial_chunks(config, streams):
                instrumenter.record_campaign(shards=chunk, compute_times_s=times)
        return instrumenter.dataset()

    # ------------------------------------------------------------------
    # chunk-parallel drivers
    # ------------------------------------------------------------------
    def _parallel_chunk_size(self, n_shards: int, workers: int) -> int:
        """Effective chunk size of a parallel run: never above
        ``chunk_shards`` (the memory bound), shrunk so every worker gets at
        least one chunk.  Any chunking is bit-identical, so splitting finer
        only trades a little assembly overhead for parallel coverage."""
        per_worker = -(-n_shards // workers)  # ceil
        return max(1, min(self.chunk_shards, per_worker))

    def _parallel_chunks(
        self, config: "CampaignConfig", workers: int
    ) -> List[List[Tuple[int, int]]]:
        shards = [(spec.trial, spec.process) for spec in self.shard_specs(config)]
        workers = max(1, min(int(workers), len(shards)))
        size = self._parallel_chunk_size(len(shards), workers)
        return [shards[start : start + size] for start in range(0, len(shards), size)]

    def _map_chunks_pooled(self, tasks, workers: int, mode: str, *, discard=None):
        """Run ``(fn, args)`` tasks on a pool; yield results in submission
        order through a bounded in-flight window (~2 x workers).

        A worker process that dies mid-task surfaces as a clear
        ``RuntimeError`` (never a hang); closing the consumer cancels the
        queued tasks at the next chunk boundary, and ``discard`` releases
        any undelivered completed results (shared-memory segments, spilled
        payload files) so nothing leaks.
        """
        pool = _make_pool(mode, workers)
        task_iter = iter(tasks)
        pending: deque = deque()

        def submit_next() -> None:
            for fn, args in itertools.islice(task_iter, 1):
                pending.append(pool.submit(fn, *args))

        try:
            for _ in range(2 * workers):
                submit_next()
            while pending:
                future = pending.popleft()
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    raise RuntimeError(
                        "a campaign chunk worker died mid-fold (the pool is "
                        "broken); re-run serially (max_workers=1) to isolate "
                        "the failing chunk"
                    ) from exc
                submit_next()
                yield result
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
            for future in pending:
                if future.cancelled():
                    continue
                try:
                    result = future.result()
                except Exception:
                    continue
                if discard is not None:
                    discard(result)

    def _iter_parallel_columns(
        self, config: "CampaignConfig", chunks, workers: int, mode: str
    ) -> Iterator[Dict[str, np.ndarray]]:
        """Fold chunks on a pool; yield each chunk's column block in order."""
        if mode == "thread":
            tasks = [(_campaign_chunk_columns, (config, chunk)) for chunk in chunks]
            yield from self._map_chunks_pooled(tasks, workers, mode)
            return
        tasks = [(_run_campaign_chunk_shm, (config, chunk)) for chunk in chunks]
        for segment_name, descriptors in self._map_chunks_pooled(
            tasks, workers, mode, discard=_discard_shm_result
        ):
            yield _unpack_blocks(segment_name, descriptors)[0]

    def iter_shards_parallel(
        self,
        config: "CampaignConfig",
        *,
        workers: int,
        mode: str = "process",
        store=None,
    ) -> Iterator[TimingShard]:
        """Stream the campaign's shards with chunks folded on a worker pool.

        Shards arrive in trial-major order (chunks are delivered in
        submission order), bit-identical to :meth:`iter_shards`.  With a
        ``store`` and process workers, each worker spills its chunk straight
        into the store's on-disk group format and the parent merely adopts
        the finished file — the sample arrays never cross the process
        boundary, and the yielded shards are the store's zero-copy mmap
        views.  Closing the iterator cancels queued chunks at the next
        chunk boundary.
        """
        chunks = self._parallel_chunks(config, workers)
        workers = max(1, min(int(workers), len(chunks)))
        if workers <= 1 or len(chunks) <= 1:
            for shard in self.iter_shards(config):
                if store is not None:
                    store.append(shard)
                yield shard
            return
        per_shard = config.iterations * config.threads
        if store is not None and mode == "process":
            tasks = [
                (_spill_campaign_chunk, (config, chunk, str(store.path), index))
                for index, chunk in enumerate(chunks)
            ]
            for payload, entry in self._map_chunks_pooled(
                tasks, workers, mode, discard=_discard_payload_result
            ):
                adopted = store.adopt_group(payload, entry)
                yield from store.iter_group(adopted)
            return
        blocks = self._iter_parallel_columns(config, chunks, workers, mode)
        for chunk, columns in zip(chunks, blocks):
            shards = _slice_chunk_shards(chunk, columns, per_shard)
            if store is not None:
                store.extend(shards)
            yield from shards

    def map_chunk_blocks(
        self,
        config: "CampaignConfig",
        mapper,
        *,
        workers: Optional[int] = None,
        mode: str = "process",
    ) -> Iterator[list]:
        """Fold chunks and apply ``mapper(columns, slices)`` where they land.

        The fused execute-and-analyse driver: each chunk's column block is
        handed to ``mapper`` (e.g. the analysis engine's
        ``ColumnarAnalyzer``) right where the fold produced it — inside the
        pool worker when ``workers > 1`` — and only the mapper's result is
        delivered, in submission (trial-major) order.  When only analyses
        are requested this skips shard assembly and the shared-memory
        column copy entirely.  ``mapper`` must be picklable for process
        pools.
        """
        if workers is None:
            workers = int(getattr(config, "max_workers", 1) or 1)
        per_shard = config.iterations * config.threads
        chunks = self._parallel_chunks(config, max(1, int(workers)))
        workers = max(1, min(int(workers), len(chunks)))
        if workers <= 1 or len(chunks) <= 1:
            for app, chunk, times in self._serial_chunks(config):
                columns = _chunk_columns(app, chunk, times)
                yield mapper(columns, _chunk_slices(chunk, per_shard))
            return
        tasks = [
            (_campaign_chunk_partials, (config, chunk, mapper)) for chunk in chunks
        ]
        yield from self._map_chunks_pooled(tasks, workers, mode)

    # ------------------------------------------------------------------
    # grouped execution (scenario-matrix sweeps, coalesced service jobs)
    # ------------------------------------------------------------------
    def run_many(
        self, configs: List["CampaignConfig"], *, mode: str = "process"
    ) -> List[TimingDataset]:
        """Run several campaigns, sharing tensor execution where compatible.

        Configs with equal :func:`campaign_group_key` concatenate their cost
        tensors along the shard axis and fold the schedule *once* per chunk
        (plus one columnar assembly per config segment); incompatible
        configs run individually.  Returns the merged datasets in input
        order, each **bit-identical** to ``run(config)`` — all draws come
        from per-config purpose streams, only the deterministic fold and the
        assembly are shared.

        Any config requesting ``max_workers > 1`` makes its group fold
        chunks on a worker pool (``mode`` as in the executor) — grouped,
        parallel and solo runs all produce identical bits.
        """
        configs = list(configs)
        groups: Dict[Tuple, List[int]] = {}
        for index, config in enumerate(configs):
            groups.setdefault(campaign_group_key(config), []).append(index)
        results: List[Optional[TimingDataset]] = [None] * len(configs)
        for indices in groups.values():
            if len(indices) == 1:
                index = indices[0]
                results[index] = self.run(configs[index], mode=mode)
                continue
            group = [configs[i] for i in indices]
            workers = max(
                int(getattr(config, "max_workers", 1) or 1) for config in group
            )
            if workers > 1:
                shard_lists = self._run_group_parallel(group, workers, mode)
            else:
                shard_lists = self._run_group(group)
            for index, shards in zip(indices, shard_lists):
                results[index] = TimingDataset.merge(
                    shards, metadata=self.metadata(configs[index])
                )
        return results  # type: ignore[return-value]

    def _run_group_parallel(
        self, group: List["CampaignConfig"], workers: int, mode: str
    ) -> List[List[TimingShard]]:
        """Chunk-parallel variant of :meth:`_run_group`: the concatenated
        shard axis is chunked and each chunk's shared fold runs on a worker
        (``_fold_group_chunk``) — the shard-keyed streams make the result
        bit-identical to the serial grouped pass and to solo runs."""
        entries = [
            (config_index, (spec.trial, spec.process))
            for config_index, config in enumerate(group)
            for spec in self.shard_specs(config)
        ]
        workers = max(1, min(int(workers), len(entries)))
        size = self._parallel_chunk_size(len(entries), workers)
        chunks = [entries[start : start + size] for start in range(0, len(entries), size)]
        if workers <= 1 or len(chunks) <= 1:
            return self._run_group(group)
        per_shard = group[0].iterations * group[0].threads
        out: List[List[TimingShard]] = [[] for _ in group]
        if mode == "thread":
            tasks = [(_fold_group_chunk, (group, chunk)) for chunk in chunks]
            for results in self._map_chunks_pooled(tasks, workers, mode):
                for config_index, shards, columns in results:
                    out[config_index].extend(
                        _slice_chunk_shards(shards, columns, per_shard)
                    )
            return out
        tasks = [(_fold_group_chunk_shm, (group, chunk)) for chunk in chunks]
        for meta, segment_name, descriptors in self._map_chunks_pooled(
            tasks, workers, mode, discard=lambda result: _discard_shm(result[1])
        ):
            blocks = _unpack_blocks(segment_name, descriptors)
            for (config_index, shards), columns in zip(meta, blocks):
                out[config_index].extend(
                    _slice_chunk_shards(shards, columns, per_shard)
                )
        return out

    def _run_group(
        self, group: List["CampaignConfig"]
    ) -> List[List[TimingShard]]:
        """Shared tensor execution of one compatible config group."""
        contexts = [self._context(config, None) for config in group]
        # concatenated shard axis: (config index, trial, process), config-major
        entries = [
            (config_index, shard)
            for config_index, (_, _, _, shards) in enumerate(contexts)
            for shard in shards
        ]
        per_shard = group[0].iterations * group[0].threads
        out: List[List[TimingShard]] = [[] for _ in group]
        for start in range(0, len(entries), self.chunk_shards):
            chunk = entries[start : start + self.chunk_shards]
            for config_index, shards, columns in _fold_group_chunk(
                group, chunk, contexts.__getitem__
            ):
                out[config_index].extend(
                    _slice_chunk_shards(shards, columns, per_shard)
                )
        return out
