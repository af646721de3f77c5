"""Pluggable campaign execution backends.

A :class:`CampaignBackend` turns a :class:`~repro.experiments.config.CampaignConfig`
into timing samples.  Backends are registered by name with
:func:`register_backend` and looked up with :func:`get_backend`, so new
execution strategies (cached, distributed, GPU-resident, ...) plug into the
campaign layer without touching it.  One backend ships with the package,
``"campaign"`` (the default): the whole-campaign tensor kernel.  It samples
the applications' calibrated work/cost/noise models in closed form (no event
engine) for *all* (trial, process) shards at once, as
``(n_shards, n_iterations, n_threads)`` arrays — one schedule fold for an
entire shard chunk, whose sampled tensor is the chunk's column block
(``chunk_shards`` bounds peak memory).  This is how full paper-scale
campaigns (768 000 samples per application) complete in seconds.  Draw
streams are keyed by absolute shard scope, so results are bit-identical
across any chunking *and any worker count*: with ``max_workers > 1`` whole
chunks fold in parallel on the executor's worker pool, returning their cubes
through shared memory (or spilling straight into a
:class:`~repro.io.shard_store.ShardStore`).  Every campaign runs on its own:
a scenario sweep or a queue of service jobs is one campaign after another
through the executor.

Every backend decomposes its campaign into (trial, process) *shards*
(:meth:`shard_specs`), cuts it into *units of work* (:meth:`work_units`: one
shard each by default, one shard chunk for ``"campaign"``) and produces one
unit's column block from nothing but the config and the unit
(:meth:`unit_block`).  A unit re-derives all of its random streams from the
campaign's root seed by name, so producing it is a pure function of
(config, unit): the executor runs the units in-process for a serial run and
on any worker, in any order, for a pooled one, and the merged result is
bit-identical.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

from repro._registry import Registry
from repro.apps import get_application
from repro.apps.base import ProxyApplication
from repro.core.aggregation import ColumnBlock, campaign_block
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
    """Address of one campaign shard: one process of one trial."""

    trial: int
    process: int


class CampaignBackend(ABC):
    """Execution strategy of a measurement campaign.

    A backend is its units of work.  Subclasses produce one unit's column
    block (:meth:`unit_block`); by default a unit is one shard spec, and a
    backend whose unit is a whole shard chunk overrides :meth:`work_units`
    too.  The executor (:class:`~repro.experiments.executor.ShardExecutor`)
    is the only driver: it runs the units in-process for a serial run and
    on its worker pool for a pooled one.
    """

    #: registered backend name (set by :func:`register_backend`)
    name: str = "abstract"

    def shard_specs(self, config: "CampaignConfig") -> List[ShardSpec]:
        """The campaign's (trial, process) shards, in serial (trial-major)
        order."""
        return [
            ShardSpec(trial=trial, process=process)
            for trial in range(config.trials)
            for process in range(config.processes)
        ]

    def work_units(self, config: "CampaignConfig", workers: int) -> List[object]:
        """The picklable units a ``workers``-wide pool runs (``workers=1``:
        a serial run), in serial order: the campaign's shard specs."""
        return self.shard_specs(config)

    @abstractmethod
    def unit_block(self, config: "CampaignConfig", unit) -> ColumnBlock:
        """One unit's column block, a pure function of ``config`` and
        ``unit``: it must derive every draw by name from
        ``RandomStreams(config.seed)``, so the block is the same in any
        process, in any order and on every call."""

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
_BACKENDS: Registry[Type[CampaignBackend]] = Registry(
    "campaign backend",
    "backends",
    accepts=lambda cls: isinstance(cls, type) and issubclass(cls, CampaignBackend),
    expects="a CampaignBackend subclass",
    write_back=True,
)

#: class decorator registering a :class:`CampaignBackend`, bare (under its
#: ``name``) or named (``@register_backend("my-backend", replace=...)``)
register_backend = _BACKENDS.register
available_backends = _BACKENDS.names
unregister_backend = _BACKENDS.unregister


def get_backend(name: str) -> CampaignBackend:
    """Instantiate the backend registered under ``name``."""
    return _BACKENDS.lookup(name)()


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
#: per-thread execution context of the last config a thread folded.  Pool
#: workers are reused across chunks, and a serial run folds every chunk in
#: the calling thread, so rebuilding the application per chunk would redo
#: its one-time setup — cost calibration, the deterministic busy-row fold
#: MiniFE caches on the app instance — for every chunk, costing more than
#: the fold itself.  Each pool serves one campaign, so one slot per thread
#: is enough.  The slot is keyed by a copy of the config, so a caller that
#: changes its config in place between two runs gets a fresh context;
#: thread-local so thread-pool workers never share a
#: PurposeSplitRNG (its scope stack is mutable).  A reused context gives
#: the blocks a fresh one would only while every draw of a chunk is served
#: fresh from its absolute scope path (PurposeSplitRNG draws,
#: RandomStreams.fresh): a generator cached by RandomStreams.get would
#: carry its state from one chunk into the next.
_WORKER_STATE = threading.local()


def _worker_context(config: "CampaignConfig") -> tuple:
    """This thread's ``(app, purpose rng, noise model)`` for ``config``."""
    cached = getattr(_WORKER_STATE, "context", None)
    if cached is None or cached[0] != config:
        streams = RandomStreams(config.seed)
        app = build_application(config)
        rng = PurposeSplitRNG(streams, app.name, "campaign")
        noise = config.machine.build_noise_model(
            streams.get(app.name, "campaign-noise-model")
        )
        cached = _WORKER_STATE.context = (copy.deepcopy(config), (app, rng, noise))
    return cached[1]


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

    The draws are ordered shard-major, not iteration by iteration, so the
    samples agree with a per-iteration sampling loop in distribution
    (property-tested against the tests' reference sampler), not
    bit-for-bit; the backend pins its own smoke digests.  The schedule
    fold itself keeps per-row bit-identity with the per-iteration
    ``simulate``.

    The campaign is one unit of work per *chunk*, not per shard:
    :meth:`work_units` cuts the campaign into chunks and :meth:`unit_block`
    folds one, in-process for a serial run and on the executor's pool for
    a parallel one.
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
    # units of work: shard chunks
    # ------------------------------------------------------------------
    def work_units(
        self, config: "CampaignConfig", workers: int
    ) -> List[List[Tuple[int, int]]]:
        """The shard chunks a ``workers``-wide run folds, in trial-major
        order.  A chunk holds at most ``chunk_shards`` shards (the memory
        bound), fewer where that gives every worker at least one chunk: any
        chunking is bit-identical, so splitting finer only trades a little
        assembly overhead for parallel coverage."""
        shards = [(spec.trial, spec.process) for spec in self.shard_specs(config)]
        workers = max(1, min(int(workers), len(shards)))
        per_worker = -(-len(shards) // workers)  # ceil
        size = max(1, min(self.chunk_shards, per_worker))
        return [shards[start : start + size] for start in range(0, len(shards), size)]

    def unit_block(self, config: "CampaignConfig", chunk) -> ColumnBlock:
        """Fold one shard chunk into its block, under this thread's cached
        context."""
        app, rng, noise = _worker_context(config)
        chunk = [tuple(shard) for shard in chunk]
        times = app.thread_compute_times_campaign(shards=chunk, rng=rng, noise=noise)
        return campaign_block(chunk, times)
