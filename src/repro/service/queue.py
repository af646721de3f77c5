"""The service scheduler: a bounded priority queue and its worker pool.

Two layers:

* :class:`JobQueue` — the admission-controlled priority queue.  ``put``
  either accepts a job or raises :class:`RejectedError` when the queue
  already holds ``max_depth`` jobs; the depth never grows past the
  configured bound (the "millions of users" stance: shed load explicitly
  at the front door rather than buffering unboundedly and falling over
  later).  Higher ``Job.priority`` runs earlier; equal priorities run in
  submission (FIFO) order.
* :class:`JobScheduler` — ``workers`` long-lived asyncio tasks pulling
  from the queue and awaiting a job handler (the service's execute
  coroutine).  Jobs cancelled while queued are skipped when they reach the
  queue head; running jobs cancel cooperatively between shards (see
  :mod:`repro.service.jobs`).
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Awaitable, Callable, List

from repro.service.jobs import Job


class RejectedError(RuntimeError):
    """Admission control rejected a submission (queue at max depth)."""

    def __init__(self, depth: int, max_depth: int) -> None:
        super().__init__(
            f"queue is full ({depth}/{max_depth} jobs queued); "
            "retry later or raise --max-queue"
        )
        self.depth = depth
        self.max_depth = max_depth


class JobQueue:
    """Priority queue with an explicit admission bound.

    Depth counts jobs *waiting* (accepted but not yet claimed by a
    worker); running jobs do not occupy queue slots.
    """

    def __init__(self, max_depth: int = 32) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = int(max_depth)
        self._heap: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._seq = itertools.count()
        self._depth = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of jobs currently waiting in the queue."""
        return self._depth

    def put(self, job: Job) -> None:
        """Enqueue ``job`` or raise :class:`RejectedError` at max depth.

        Higher ``job.priority`` is served first; ties break FIFO via a
        monotonic sequence number.
        """
        if self._depth >= self.max_depth:
            raise RejectedError(self._depth, self.max_depth)
        self._depth += 1
        self._heap.put_nowait((-job.priority, next(self._seq), job))

    async def get(self) -> Job:
        """Claim the highest-priority waiting job (may be cancelled)."""
        _, _, job = await self._heap.get()
        self._depth -= 1
        return job

    def __len__(self) -> int:
        return self._depth


class JobScheduler:
    """Bounded worker pool draining a :class:`JobQueue`.

    Parameters
    ----------
    handler:
        ``async handler(job)`` executing one claimed job end to end
        (including marking it done/failed/cancelled).  The scheduler only
        guards against handler crashes so a worker task never dies.
    workers:
        Number of concurrent jobs (one asyncio task each; the service
        pairs them with an equal-sized thread pool for the synchronous
        shard execution).
    max_queue:
        Admission bound forwarded to :class:`JobQueue`.
    """

    def __init__(
        self,
        handler: Callable[[Job], Awaitable[None]],
        *,
        workers: int = 2,
        max_queue: int = 32,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.queue = JobQueue(max_queue)
        self._handler = handler
        self._tasks: List[asyncio.Task] = []
        self._running = 0

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._tasks)

    @property
    def running(self) -> int:
        """Jobs currently being executed by a worker."""
        return self._running

    @property
    def depth(self) -> int:
        return self.queue.depth

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        if self._tasks:
            return
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"campaign-worker-{i}")
            for i in range(self.workers)
        ]

    async def stop(self) -> None:
        """Cancel the worker tasks and wait for them to unwind."""
        tasks, self._tasks = self._tasks, []
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass

    def submit(self, job: Job) -> None:
        """Admit ``job`` to the queue (raises :class:`RejectedError`)."""
        self.queue.put(job)

    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            job = await self.queue.get()
            if job.finished:
                continue  # cancelled while queued
            if job.cancel_requested.is_set():
                job._mark_cancelled()
                continue
            self._running += 1
            try:
                await self._handler(job)
            except asyncio.CancelledError:
                raise
            except BaseException as error:  # defensive: keep the worker alive
                job._fail(error)
            finally:
                self._running -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobScheduler(workers={self.workers}, depth={self.depth}, "
            f"running={self.running}, max_queue={self.queue.max_depth})"
        )
