"""The in-process async campaign service.

:class:`CampaignService` is the front door for concurrent clients: it
accepts scenario names or :class:`~repro.experiments.config.CampaignConfig`
objects, coalesces identical in-flight submissions, serves completed
configurations straight out of the campaign cache it shares with
:class:`~repro.experiments.session.CampaignSession` (one shard store per
config hash), and executes everything else on a bounded worker pool —
streaming shards back the moment the executor produces them::

    service = CampaignService(workers=2, max_queue=32, cache_dir="cache/")
    async with service:
        handle = await service.submit("manzano-default", scale="smoke")
        async for shard in handle.stream():
            ...                       # shards arrive incrementally
        result = await handle.result()  # bit-identical to CampaignSession.run

Execution bridges the synchronous campaign machinery into asyncio with
``loop.run_in_executor``: each claimed job occupies one thread of a pool
sized to the worker count, iterates
:meth:`ShardExecutor.iter_blocks <repro.experiments.executor.ShardExecutor.iter_blocks>`
(the documented incremental block contract) and posts every block's shards
(one-slice blocks of zero-copy views) back to the event loop, where the job
broadcasts them to stream subscribers.  The thread polls the job's cancel flag between shards,
so cancellation stops a running job at the next shard boundary (closing the
executor's iterator cancels its queued units).

A done job's analyses (:meth:`CampaignService.job_analyses`) come from the
same cache directory: each pass's finalized product is one entry of the
analysis-product cache ``CampaignSession.analyze`` uses, folded from the
job's result only where it is missing, and the JSON payload is rebuilt
from the products on every request.  A finished job so keeps its status,
digest and store handle, not its payload; only a service without a cache
directory memoises payloads in memory.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.experiments.backends import get_backend
from repro.experiments.config import CampaignConfig
from repro.experiments.executor import ShardExecutor
from repro.experiments.session import (
    CampaignResult,
    cached_analysis_products,
    campaign_store_path,
    config_cache_key,
    open_cached_campaign,
    write_campaign_store,
)
from repro.service.dedup import RequestCoalescer
from repro.service.jobs import Job, JobHandle, JobState, streamed_digest
from repro.service.queue import JobScheduler, RejectedError

#: campaign-size presets a submission may name (mirrors the CLI's --scale)
SCALES = ("smoke", "benchmark", "paper")


class _CancelledBetweenShards(Exception):
    """Internal: the producing thread observed the cancel flag."""


class CampaignService:
    """Async multi-tenant campaign server (in-process API).

    Parameters
    ----------
    workers:
        Concurrent jobs (asyncio worker tasks, each backed by one thread
        of the execution pool).  Within a job, ``config.max_workers`` still
        fans the campaign's units of work across the executor's pool.
    max_queue:
        Admission bound: submissions beyond this many *waiting* jobs raise
        :class:`~repro.service.queue.RejectedError`.
    cache_dir:
        Campaign cache shared with
        :class:`~repro.experiments.session.CampaignSession` (one shard store
        per config hash); completed configurations are served from it
        without re-execution (``cache_hits`` counter), and every pass's
        analysis product is kept there rather than on the heap
        (``analysis_cache_hits``/``analysis_cache_misses``).  ``None``
        disables caching.  Entries are published atomically and corrupt
        ones are detected and recomputed, so many service workers and
        sessions can share one directory.
    cache_max_bytes:
        Size budget of the shared cache tier
        (:class:`~repro.io.cache_tier.CacheTier`): every store write
        LRU-evicts stores over budget; analysis products are kept outside
        it, so an analysed job's ``/analyses`` outlives its store.
        ``None`` defers to ``$REPRO_CACHE_MAX_BYTES`` and, failing that,
        leaves the tier unbounded.
    executor_mode:
        Worker-pool flavour for within-job shard parallelism (``"process"``
        or ``"thread"``), as in :class:`CampaignSession`.
    default_scale:
        Preset used when a scenario-name submission does not specify one.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        max_queue: int = 32,
        cache_dir: Optional[Union[str, Path]] = None,
        cache_max_bytes: Optional[int] = None,
        executor_mode: str = "process",
        default_scale: str = "smoke",
    ) -> None:
        if default_scale not in SCALES:
            raise ValueError(
                f"default_scale must be one of {SCALES}, got {default_scale!r}"
            )
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.cache_tier = None
        if self.cache_dir is not None:
            from repro.io.cache_tier import CacheTier

            self.cache_tier = CacheTier(self.cache_dir, max_bytes=cache_max_bytes)
        self.executor_mode = executor_mode
        self.default_scale = default_scale
        self._scheduler = JobScheduler(
            self._execute, workers=workers, max_queue=max_queue
        )
        self._coalescer = RequestCoalescer()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._jobs: Dict[str, Job] = {}
        self._analyses: Dict[str, Dict[str, object]] = {}
        self._analyses_locks: Dict[str, asyncio.Lock] = {}
        self._counter_lock = threading.Lock()
        self._counters = {
            "submitted": 0,
            "rejected": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "analysis_cache_hits": 0,
            "analysis_cache_misses": 0,
        }
        self._next_id = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._scheduler.started

    async def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._scheduler.workers,
                thread_name_prefix="campaign-job",
            )
        await self._scheduler.start()

    async def stop(self) -> None:
        """Cancel outstanding jobs cooperatively and stop the workers."""
        for job in self._jobs.values():
            if not job.finished:
                job.cancel()
        if self._pool is not None:
            # threads observe the cancel flag at the next shard boundary
            await asyncio.get_running_loop().run_in_executor(
                None, self._pool.shutdown, True
            )
            self._pool = None
        await self._scheduler.stop()

    async def __aenter__(self) -> "CampaignService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def resolve_config(
        self,
        request: Union[str, CampaignConfig],
        *,
        scale: Optional[str] = None,
        **overrides,
    ) -> CampaignConfig:
        """Turn a submission into a concrete :class:`CampaignConfig`.

        ``request`` is either a registered scenario name (resolved at
        ``scale``, with dimension/seed/backend/max_workers overrides
        forwarded) or an already-built config (used as-is; ``scale`` and
        overrides are rejected to avoid silently ignoring them).
        """
        if isinstance(request, CampaignConfig):
            if scale is not None or overrides:
                raise ValueError(
                    "scale/overrides only apply to scenario-name submissions; "
                    "pass a fully-built CampaignConfig instead"
                )
            return request
        from repro.scenarios import get_scenario

        return get_scenario(str(request)).campaign_config(
            scale if scale is not None else self.default_scale, **overrides
        )

    async def submit(
        self,
        request: Union[str, CampaignConfig],
        *,
        scale: Optional[str] = None,
        priority: int = 0,
        use_cache: bool = True,
        coalesce: bool = True,
        **overrides,
    ) -> JobHandle:
        """Submit a campaign; returns immediately with a :class:`JobHandle`.

        Identical concurrent submissions (same
        :func:`~repro.experiments.session.config_cache_key`) coalesce onto
        one in-flight job unless ``coalesce=False``; higher ``priority``
        jobs run earlier.  Raises
        :class:`~repro.service.queue.RejectedError` when the queue is at
        its admission bound.
        """
        if not self.started:
            raise RuntimeError("service not started; use 'async with service:'")
        config = self.resolve_config(request, scale=scale, **overrides)
        self._count("submitted")
        if coalesce and use_cache:
            existing = self._coalescer.lookup(config_cache_key(config))
            if existing is not None:
                return JobHandle(existing, coalesced=True)
        self._next_id += 1
        job = Job(
            f"job-{self._next_id:06d}",
            config,
            priority=priority,
            use_cache=use_cache,
            shards_total=len(get_backend(config.backend).shard_specs(config)),
        )
        try:
            self._scheduler.submit(job)
        except RejectedError:
            self._count("rejected")
            raise
        self._jobs[job.id] = job
        if coalesce and use_cache:
            self._coalescer.register(job)
        return JobHandle(job, coalesced=False)

    def get_job(self, job_id: str) -> Optional[Job]:
        """The job with ``job_id``, or ``None``."""
        return self._jobs.get(job_id)

    # ------------------------------------------------------------------
    # analyses
    # ------------------------------------------------------------------
    async def job_analyses(self, job: Job) -> Dict[str, object]:
        """Finalized analysis products of a completed job, as JSON data.

        Blocks until the job is terminal (raising, as
        :meth:`JobHandle.result` does, for failed or cancelled jobs), then
        builds the payload from every registered pass's product.  With a
        ``cache_dir`` the products live in the analysis-product cache
        shared with :class:`~repro.experiments.session.CampaignSession`:
        every call loads them, and only passes without an entry are
        folded — on the execution pool, over the job's column blocks
        (:meth:`CampaignResult.analyze`), so the products are bit-identical
        to every other route through the engine — and stored, so a
        finished job keeps no payload.  Without a ``cache_dir`` the payload
        is computed once per job and memoised.  Concurrent callers of one
        job share one computation.  A fresh job whose samples the cache
        holds also swaps its in-memory result for that store-backed entry,
        so a finished job keeps no samples on the heap either.  The tier
        never evicts products, so a job analysed once is answered after its
        store is evicted; a job whose store was evicted before its first
        analyses raises :class:`~repro.service.jobs.ResultEvictedError`.
        """
        await job.wait()
        job.result_or_raise()
        payload = self._analyses.get(job.id)
        if payload is None:
            lock = self._analyses_locks.setdefault(job.id, asyncio.Lock())
            try:
                async with lock:
                    payload = self._analyses.get(job.id)
                    if payload is None:
                        assert self._pool is not None
                        loop = asyncio.get_running_loop()
                        payload, result = await loop.run_in_executor(
                            self._pool, self._compute_analyses, job
                        )
                        job.result = result
                        if self.cache_dir is None:
                            self._analyses[job.id] = payload
            finally:
                self._analyses_locks.pop(job.id, None)
        return {"job_id": job.id, "digest": job.digest, "analyses": payload}

    def _compute_analyses(
        self, job: Job
    ) -> Tuple[Dict[str, object], CampaignResult]:
        """Synchronous analysis body (worker thread).

        Loads each pass's product from the cache and folds the rest over
        the job's column blocks — the in-memory ones of a fresh job, which
        are faster to fold than the store — storing what it folds
        (:func:`~repro.experiments.session.cached_analysis_products`).
        Returns the payload with the result the job keeps: the published
        cache entry in place of in-memory blocks when there is one, else
        the result itself.
        """
        from repro.analysis import product_payload, resolve_analyses

        kept = job.result_or_raise()
        if self.cache_dir is not None and kept.store is None:
            stored = open_cached_campaign(
                campaign_store_path(self.cache_dir, job.config),
                job.config,
                tier=self.cache_tier,
            )
            if stored is not None:
                kept = stored

        def fold(missing):
            with job.reading_result() as result:
                return result.analyze(missing)

        passes = resolve_analyses("all")
        products, _, hits = cached_analysis_products(
            self.cache_dir, job.config, passes, fold
        )
        if self.cache_dir is not None:
            self._count("analysis_cache_hits", hits)
            self._count("analysis_cache_misses", len(passes) - hits)
        payload = {name: product_payload(products[name]) for name in sorted(products)}
        return payload, kept

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Service-wide counters (the ``GET /stats`` payload)."""
        states: Dict[str, int] = {state.value: 0 for state in JobState}
        for job in self._jobs.values():
            states[job.state.value] += 1
        with self._counter_lock:
            counters = dict(self._counters)
        return {
            **counters,
            **self._coalescer.stats(),
            "queue_depth": self._scheduler.depth,
            "max_queue": self._scheduler.queue.max_depth,
            "running": self._scheduler.running,
            "workers": self._scheduler.workers,
            "jobs": states,
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "cache_tier": (
                self.cache_tier.stats() if self.cache_tier is not None else None
            ),
        }

    def _count(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            self._counters[name] += amount

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _execute(self, job: Job) -> None:
        """Worker-task handler: run one claimed job on the thread pool.

        Every job runs on its own through :meth:`_produce` — the same
        executor path as :meth:`CampaignSession.run`, streaming its shards
        as they are produced and polling its cancel flag between them.
        """
        job._mark_running()
        assert self._pool is not None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._pool, self._produce, job, loop)

    def _serve_cached(self, job: Job, post) -> bool:
        """Serve ``job`` from its cache entry; ``False`` on a miss.

        Ticks ``cache_hits`` or ``cache_misses`` (with a ``cache_dir``); a
        corrupt entry is removed by the lookup and counts as a miss.
        """
        if self.cache_dir is None:
            return False
        result = None
        if job.use_cache:
            result = open_cached_campaign(
                campaign_store_path(self.cache_dir, job.config),
                job.config,
                tier=self.cache_tier,
            )
        if result is None:
            self._count("cache_misses")
            return False
        self._count("cache_hits")
        if job.cancel_requested.is_set():
            post(job._mark_cancelled)
            return True
        # read the store once, without caching its views on the result
        shards = [
            block.rows(sl)
            for block in result.iter_column_blocks()
            for sl in block.slices
        ]
        post(setattr, job.progress, "shards_total", len(shards))
        for shard in shards:
            post(job._deliver, shard)
        digest = streamed_digest(shards)
        post(functools.partial(job._finish, result, digest, from_cache=True))
        return True

    def _produce(self, job: Job, loop: asyncio.AbstractEventLoop) -> None:
        """Synchronous job body (worker thread).

        Every job mutation is posted back to the event loop; this thread
        only reads ``job.cancel_requested`` (between shards) and the
        immutable config.
        """

        def post(callback, *args) -> None:
            loop.call_soon_threadsafe(callback, *args)

        def check_cancel() -> None:
            if job.cancel_requested.is_set():
                raise _CancelledBetweenShards()

        try:
            if self._serve_cached(job, post):
                return
            config = job.config
            backend = get_backend(config.backend)
            executor = ShardExecutor(mode=self.executor_mode)
            blocks = []
            for block in executor.iter_blocks(backend, config):
                blocks.append(block)
                for sl in block.slices:
                    check_cancel()
                    post(job._deliver, block.rows(sl))
            check_cancel()
            result = CampaignResult(
                config, blocks=blocks, metadata=backend.metadata(config)
            )
            if self.cache_dir is not None:
                write_campaign_store(
                    campaign_store_path(self.cache_dir, config),
                    blocks,
                    result.metadata,
                    tier=self.cache_tier,
                )
            digest = streamed_digest(blocks)
            post(functools.partial(job._finish, result, digest, from_cache=False))
        except _CancelledBetweenShards:
            post(job._mark_cancelled)
        except BaseException as error:  # surfaced through handle.result()
            post(job._fail, error)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CampaignService(workers={self._scheduler.workers}, "
            f"max_queue={self._scheduler.queue.max_depth}, "
            f"jobs={len(self._jobs)}, cache_dir={self.cache_dir})"
        )
