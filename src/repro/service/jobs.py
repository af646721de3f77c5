"""The campaign service's job model.

A submitted campaign request becomes a :class:`Job`: one unit of scheduled
work with a lifecycle (:class:`JobState`), a priority and live progress
counters (:class:`JobProgress`).  While it runs, a job buffers the shards
it has delivered — one-slice :class:`~repro.core.aggregation.ColumnBlock`
views, one per (trial, process) — so late stream subscribers can catch up;
once done, it drops that buffer and replays its shards from its result
instead.
Clients never touch jobs directly — they hold :class:`JobHandle`\\ s,
which several concurrent clients can share when their submissions
coalesce onto one job (see :mod:`repro.service.dedup`).

Threading model: the service's event loop owns every job's mutable state.
The worker *thread* that actually executes campaign shards posts its
transitions back onto the loop with ``loop.call_soon_threadsafe`` (see
:meth:`repro.service.api.CampaignService._produce`), so subscribers,
progress readers and the HTTP front end all observe a job from a single
thread.  The one exception is :attr:`Job.cancel_requested`, a
:class:`threading.Event` the worker thread polls *between shards* — that is
what makes cancellation cooperative: a running job stops at the next shard
boundary, never mid-shard.
"""

from __future__ import annotations

import asyncio
import contextlib
import enum
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from threading import Event as ThreadEvent
from typing import (
    TYPE_CHECKING,
    AsyncIterator,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
)

import numpy as np

from repro.core.timing import TimingDataset
from repro.experiments.session import CampaignResult, config_cache_key

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.core.aggregation import ColumnBlock
    from repro.experiments.config import CampaignConfig


def dataset_digest(dataset: TimingDataset) -> str:
    """sha256 of the dense ``compute_times_s`` array.

    The same convention the integration tests pin campaign bit-identity
    with, so a digest returned by the service can be compared directly
    against the recorded scenario-matrix digests.
    """
    blob = np.ascontiguousarray(dataset.compute_times_s, dtype=np.float64).tobytes()
    return hashlib.sha256(blob).hexdigest()


def streamed_digest(blocks: Iterable["ColumnBlock"]) -> str:
    """:func:`dataset_digest` of the blocks' merge, without merging them.

    Hashes each slice's samples in ``sort_key`` order — the order
    :meth:`TimingDataset.merge` concatenates in — so no dense dataset is
    ever built.
    """
    parts = sorted(
        ((sl.sort_key, block.rows(sl)) for block in blocks for sl in block.slices),
        key=lambda part: part[0],
    )
    digest = hashlib.sha256()
    for _, shard in parts:
        digest.update(np.ascontiguousarray(shard.cube, dtype=np.float64))
    return digest.hexdigest()


def shard_digest(shard: "ColumnBlock") -> str:
    """sha256 of one shard's compute times (a one-slice block's cube)."""
    return hashlib.sha256(
        np.ascontiguousarray(shard.cube, dtype=np.float64)
    ).hexdigest()


class JobState(str, enum.Enum):
    """Lifecycle of a campaign job."""

    QUEUED = "queued"
    RUNNING = "running"
    STREAMING = "streaming"  # running, with at least one shard delivered
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: states a job can never leave
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)


class JobCancelledError(RuntimeError):
    """Raised by :meth:`JobHandle.result` when the job was cancelled."""


class ResultEvictedError(RuntimeError):
    """A done job's samples can no longer be replayed.

    Raised by :meth:`Job.subscribe` (and :attr:`Job.shards`) when the
    cache entry a finished job reads its shards back from was evicted
    from the cache tier, and by
    :meth:`~repro.service.api.CampaignService.job_analyses` when a cache
    hit's entry went before its analyses were folded; resubmitting the
    config recomputes it.
    """

    def __init__(self, job_id: str, entry: Path) -> None:
        super().__init__(
            f"job {job_id}: its cache entry {entry} was evicted; "
            "resubmit the campaign to recompute it"
        )
        self.job_id = job_id
        self.entry = entry


#: end-of-stream sentinel pushed into subscriber queues
_END = object()


@dataclass
class JobProgress:
    """Live per-job progress counters (updated as shards are delivered)."""

    shards_total: int = 0
    shards_done: int = 0
    samples_done: int = 0
    submitted_at: float = field(default_factory=time.perf_counter)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def samples_per_second(self) -> float:
        """Throughput since the job started (0.0 before any shard lands)."""
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else time.perf_counter()
        elapsed = end - self.started_at
        return self.samples_done / elapsed if elapsed > 0 else 0.0

    @property
    def queue_latency_s(self) -> Optional[float]:
        """Time spent waiting in the queue (None while still queued)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def elapsed_s(self) -> Optional[float]:
        """Submit-to-finish latency (None until the job is terminal)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def as_dict(self) -> Dict[str, object]:
        return {
            "shards_total": self.shards_total,
            "shards_done": self.shards_done,
            "samples_done": self.samples_done,
            "samples_per_second": self.samples_per_second,
            "queue_latency_s": self.queue_latency_s,
            "elapsed_s": self.elapsed_s,
        }


class Job:
    """One scheduled campaign execution.

    All mutating methods (``_mark_running``/``_deliver``/``_finish``/...)
    must be called on the service's event-loop thread; the worker thread
    reaches them through ``loop.call_soon_threadsafe``.
    """

    def __init__(
        self,
        job_id: str,
        config: "CampaignConfig",
        *,
        priority: int = 0,
        use_cache: bool = True,
        shards_total: int = 0,
    ) -> None:
        self.id = job_id
        self.config = config
        self.priority = int(priority)
        self.use_cache = bool(use_cache)
        self.cache_key = config_cache_key(config)
        self.state = JobState.QUEUED
        self.progress = JobProgress(shards_total=shards_total)
        self.error: Optional[BaseException] = None
        self.result: Optional[CampaignResult] = None
        self.digest: Optional[str] = None
        self.from_cache = False
        #: polled by the worker thread between shards (cooperative cancel)
        self.cancel_requested = ThreadEvent()
        self._shards: List["ColumnBlock"] = []
        self._subscribers: List[asyncio.Queue] = []
        self._done = asyncio.Event()
        self._done_callbacks: List[Callable[["Job"], None]] = []

    # ------------------------------------------------------------------
    @property
    def application(self) -> str:
        return self.config.application

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def shards(self) -> List["ColumnBlock"]:
        """The shards delivered so far (all of them once the job is done),
        each a one-slice block.

        A done job reads them back from its result — from disk when that
        is a store-backed cache entry, raising :class:`ResultEvictedError`
        if the entry was evicted meanwhile.
        """
        if self.state is not JobState.DONE:
            return list(self._shards)
        with self.reading_result() as result:
            return [
                block.rows(sl)
                for block in result.iter_column_blocks()
                for sl in block.slices
            ]

    @contextlib.contextmanager
    def reading_result(self) -> Iterator[CampaignResult]:
        """The done job's result, for a read that may touch its store.

        A store file that vanished under the read means the cache tier
        evicted the entry: that surfaces as :class:`ResultEvictedError`.
        """
        result = self.result_or_raise()
        try:
            yield result
        except FileNotFoundError as error:
            if result.store is None:
                raise
            raise ResultEvictedError(self.id, result.store.path) from error

    def add_done_callback(self, callback: Callable[["Job"], None]) -> None:
        """Run ``callback(job)`` when the job reaches a terminal state."""
        if self.finished:
            callback(self)
        else:
            self._done_callbacks.append(callback)

    # ------------------------------------------------------------------
    # loop-thread transitions
    # ------------------------------------------------------------------
    def _mark_running(self) -> None:
        if self.finished:
            return
        self.state = JobState.RUNNING
        self.progress.started_at = time.perf_counter()

    def _deliver(self, shard: "ColumnBlock") -> None:
        """Buffer one produced shard and broadcast it to subscribers."""
        if self.finished:
            return
        self._shards.append(shard)
        self.progress.shards_done += 1
        self.progress.samples_done += shard.n_samples
        self.state = JobState.STREAMING
        for queue in self._subscribers:
            queue.put_nowait(shard)

    def _settle(self, state: JobState) -> None:
        self.state = state
        self.progress.finished_at = time.perf_counter()
        for queue in self._subscribers:
            queue.put_nowait(_END)
        self._done.set()
        callbacks, self._done_callbacks = self._done_callbacks, []
        for callback in callbacks:
            callback(self)

    def _finish(
        self, result: CampaignResult, digest: str, *, from_cache: bool
    ) -> None:
        if self.finished:
            return
        self.result = result
        self.digest = digest
        self.from_cache = from_cache
        # the result serves late subscribers from here on
        self._shards.clear()
        self._settle(JobState.DONE)

    def _fail(self, error: BaseException) -> None:
        if self.finished:
            return
        self.error = error
        self._settle(JobState.FAILED)

    def _mark_cancelled(self) -> None:
        if self.finished:
            return
        self._settle(JobState.CANCELLED)

    # ------------------------------------------------------------------
    # client-facing operations (loop thread)
    # ------------------------------------------------------------------
    def cancel(self) -> bool:
        """Request cancellation.

        A queued job is cancelled immediately (the scheduler skips it when
        it reaches the queue head); a running job stops cooperatively at
        the next shard boundary.  Returns ``False`` when the job already
        finished.  Cancelling affects *every* handle coalesced onto this
        job.
        """
        if self.finished:
            return False
        self.cancel_requested.set()
        if self.state is JobState.QUEUED:
            self._mark_cancelled()
        return True

    def subscribe(self) -> asyncio.Queue:
        """A queue receiving this job's shards (delivered ones replayed).

        Late subscribers first receive every already-delivered shard, then
        live ones, then the end-of-stream sentinel — so a coalesced client
        that attached mid-run still observes the full shard sequence in
        serial order.  A done job replays all of :attr:`shards` up front,
        so an evicted entry raises :class:`ResultEvictedError` here, before
        anything is queued.
        """
        queue: asyncio.Queue = asyncio.Queue()
        for shard in self.shards:
            queue.put_nowait(shard)
        if self.finished:
            queue.put_nowait(_END)
        else:
            self._subscribers.append(queue)
        return queue

    async def wait(self) -> None:
        """Block until the job reaches a terminal state."""
        await self._done.wait()

    def result_or_raise(self) -> CampaignResult:
        """The finished result (raising for failed/cancelled jobs)."""
        if self.state is JobState.FAILED:
            assert self.error is not None
            raise self.error
        if self.state is JobState.CANCELLED:
            raise JobCancelledError(f"job {self.id} was cancelled")
        if self.result is None:
            raise RuntimeError(f"job {self.id} has not finished ({self.state.value})")
        return self.result

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """JSON-friendly job status (the ``GET /jobs/<id>`` payload)."""
        payload: Dict[str, object] = {
            "job_id": self.id,
            "state": self.state.value,
            "application": self.application,
            "scenario": getattr(self.config, "scenario", None),
            "backend": self.config.backend,
            "priority": self.priority,
            "cache_key": self.cache_key,
            "from_cache": self.from_cache,
            **self.progress.as_dict(),
        }
        if self.digest is not None:
            payload["digest"] = self.digest
        if self.error is not None:
            payload["error"] = repr(self.error)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.id!r}, {self.application!r}, state={self.state.value}, "
            f"shards={self.progress.shards_done}/{self.progress.shards_total})"
        )


class JobHandle:
    """A client's view of one (possibly shared) job.

    Multiple handles point at the same :class:`Job` when submissions
    coalesce; :attr:`coalesced` tells a client whether its submission
    attached to an already-in-flight computation.
    """

    def __init__(self, job: Job, *, coalesced: bool = False) -> None:
        self._job = job
        self.coalesced = coalesced

    # ------------------------------------------------------------------
    @property
    def job(self) -> Job:
        return self._job

    @property
    def job_id(self) -> str:
        return self._job.id

    @property
    def state(self) -> JobState:
        return self._job.state

    @property
    def progress(self) -> JobProgress:
        return self._job.progress

    @property
    def digest(self) -> Optional[str]:
        return self._job.digest

    def status(self) -> Dict[str, object]:
        return self._job.status()

    def cancel(self) -> bool:
        """Cancel the underlying job (affects all coalesced handles)."""
        return self._job.cancel()

    # ------------------------------------------------------------------
    async def result(self) -> CampaignResult:
        """Wait for completion and return the campaign result.

        Raises :class:`JobCancelledError` for cancelled jobs and re-raises
        the original exception for failed ones.
        """
        await self._job.wait()
        return self._job.result_or_raise()

    async def stream(self) -> AsyncIterator["ColumnBlock"]:
        """Yield the job's shards (one-slice blocks) incrementally, as the
        executor produces them (already-produced shards are replayed first
        for late subscribers).  After the last shard, failed/cancelled jobs raise
        exactly like :meth:`result`.
        """
        queue = self._job.subscribe()
        while True:
            item = await queue.get()
            if item is _END:
                break
            yield item
        if self._job.state is not JobState.DONE:
            self._job.result_or_raise()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobHandle({self._job!r}, coalesced={self.coalesced})"
