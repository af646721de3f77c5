"""The campaign service: an async multi-tenant front end to the campaign layer.

This package turns the in-process campaign machinery — sessions, the
backend registry, the parallel shard executor and the config-hash caches —
into a long-running *server* that many concurrent clients can share:

* :mod:`repro.service.jobs` — the job model: a submitted
  :class:`~repro.experiments.config.CampaignConfig` (or scenario name)
  becomes a :class:`Job` with a lifecycle
  (``queued → running → streaming → done/failed/cancelled``), a priority
  and live progress counters (shards completed / total, samples per
  second).
* :mod:`repro.service.queue` — the scheduler: a bounded worker pool pulls
  jobs from a priority queue; submissions beyond the configured queue
  depth are rejected explicitly (:class:`RejectedError`) instead of
  growing without bound, and running jobs cancel cooperatively between
  shards.
* :mod:`repro.service.dedup` — request coalescing: concurrent submissions
  with the same :func:`~repro.experiments.session.config_cache_key` attach
  to one in-flight computation and all receive its results; completed
  results are served straight from the campaign cache shared with the
  session (one shard store per config hash).
* :mod:`repro.service.api` — the in-process async client API:
  ``handle = await service.submit(...)``, ``await handle.result()`` and
  ``async for shard in handle.stream()`` with shards arriving as the
  executor produces them.
* :mod:`repro.service.http` — an optional stdlib-only HTTP front end
  (``POST /jobs``, ``GET /jobs/<id>``, ``GET /jobs/<id>/result``,
  newline-delimited-JSON shard streaming, ``GET /stats``), reachable from
  the CLI via ``python -m repro serve`` / ``python -m repro submit``.

Results are bit-identical to :meth:`CampaignSession.run
<repro.experiments.session.CampaignSession.run>` for the same config — the
service executes the very same backends through the very same executor, and
the integration tests pin the digests.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.service.api": ("CampaignService",),
    "repro.service.dedup": ("RequestCoalescer",),
    "repro.service.http": ("CampaignHTTPServer",),
    "repro.service.jobs": (
        "Job",
        "JobCancelledError",
        "JobHandle",
        "JobProgress",
        "JobState",
        "ResultEvictedError",
        "dataset_digest",
        "shard_digest",
        "streamed_digest",
    ),
    "repro.service.queue": ("JobQueue", "JobScheduler", "RejectedError"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
