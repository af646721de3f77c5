"""Request coalescing: one in-flight computation per distinct config.

Concurrent submissions whose configurations hash to the same
:func:`~repro.experiments.session.config_cache_key` are the same work —
same samples, bit for bit — so the service executes them once.  The
coalescer maps cache keys to their in-flight :class:`~repro.service.jobs.Job`;
a matching submission attaches a new handle to the existing job (and, via
the job's shard replay in :meth:`Job.subscribe
<repro.service.jobs.Job.subscribe>`, still observes the full shard
stream).  Jobs unregister themselves the moment they reach a terminal
state — *completed* identical requests are not coalesced, they are served
from the campaign cache the service shares with the session instead
(counted separately by the service).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.service.jobs import Job


class RequestCoalescer:
    """Tracks in-flight jobs by config cache key.

    Counters: ``hits`` counts submissions that attached to an existing
    in-flight job, ``misses`` counts submissions that started a fresh
    execution.  ``hits / (hits + misses)`` is the coalescing rate the load
    benchmark and ``GET /stats`` report.
    """

    def __init__(self) -> None:
        self._inflight: Dict[str, Job] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Number of distinct computations currently in flight."""
        return len(self._inflight)

    def lookup(self, cache_key: str) -> Optional[Job]:
        """The in-flight job for ``cache_key``, counting a hit if found."""
        job = self._inflight.get(cache_key)
        if job is None or job.finished:
            return None
        self.hits += 1
        return job

    def register(self, job: Job) -> None:
        """Track a fresh job (counted as a miss) until it finishes."""
        self.misses += 1
        self._inflight[job.cache_key] = job
        job.add_done_callback(self._release)

    # ------------------------------------------------------------------
    def _release(self, job: Job) -> None:
        if self._inflight.get(job.cache_key) is job:
            del self._inflight[job.cache_key]

    def stats(self) -> Dict[str, int]:
        return {
            "coalesce_hits": self.hits,
            "coalesce_misses": self.misses,
            "inflight": self.inflight,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestCoalescer(inflight={self.inflight}, hits={self.hits}, "
            f"misses={self.misses})"
        )
