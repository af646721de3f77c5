"""Unit tests for the service scheduler: priority, admission, cancellation.

The scheduler is pure asyncio, so every test builds a tiny event loop with
``asyncio.run``; jobs are settled by stub handlers rather than real
campaign executions (the end-to-end path is covered in
``tests/integration/test_service_api.py``).
"""

import asyncio

import numpy as np
import pytest

from repro.core.aggregation import ColumnBlock, campaign_block
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignResult
from repro.service import (
    Job,
    JobCancelledError,
    JobHandle,
    JobQueue,
    JobScheduler,
    JobState,
    RejectedError,
)


def _config() -> CampaignConfig:
    return CampaignConfig.smoke(application="minife")


def _job(job_id: str, priority: int = 0) -> Job:
    return Job(job_id, _config(), priority=priority)


def _shard(trial: int = 0, process: int = 0, n: int = 4) -> ColumnBlock:
    """A one-slice block: one iteration of ``n`` threads."""
    return campaign_block([(trial, process)], np.full((1, 1, n), 1.0e-3))


class TestJobQueue:
    def test_rejects_max_depth_below_one(self):
        with pytest.raises(ValueError):
            JobQueue(max_depth=0)

    def test_priority_order_with_fifo_ties(self):
        async def scenario():
            queue = JobQueue(max_depth=8)
            queue.put(_job("low", priority=0))
            queue.put(_job("high-first", priority=5))
            queue.put(_job("high-second", priority=5))
            queue.put(_job("mid", priority=3))
            return [await queue.get() for _ in range(4)]

        order = [job.id for job in asyncio.run(scenario())]
        assert order == ["high-first", "high-second", "mid", "low"]

    def test_admission_control_rejects_at_bound(self):
        async def scenario():
            queue = JobQueue(max_depth=2)
            queue.put(_job("a"))
            queue.put(_job("b"))
            assert queue.depth == len(queue) == 2
            with pytest.raises(RejectedError) as excinfo:
                queue.put(_job("c"))
            assert excinfo.value.depth == 2
            assert excinfo.value.max_depth == 2
            assert "queue is full" in str(excinfo.value)
            # draining one slot re-opens admission
            await queue.get()
            queue.put(_job("c"))
            assert queue.depth == 2

        asyncio.run(scenario())


class TestJobScheduler:
    def test_priority_controls_execution_order(self):
        async def scenario():
            executed = []

            async def handler(job):
                job._mark_running()
                executed.append(job.id)
                job._finish(None, "", from_cache=False)

            scheduler = JobScheduler(handler, workers=1, max_queue=8)
            jobs = [
                _job("background", priority=0),
                _job("urgent", priority=10),
                _job("normal", priority=1),
            ]
            # submit before starting so the priority queue orders all three
            for job in jobs:
                scheduler.submit(job)
            await scheduler.start()
            for job in jobs:
                await job.wait()
            await scheduler.stop()
            return executed

        assert asyncio.run(scenario()) == ["urgent", "normal", "background"]

    def test_submit_raises_when_queue_full(self):
        async def scenario():
            async def handler(job):  # pragma: no cover - never runs
                job._finish(None, "", from_cache=False)

            scheduler = JobScheduler(handler, workers=1, max_queue=1)
            scheduler.submit(_job("first"))
            with pytest.raises(RejectedError):
                scheduler.submit(_job("second"))

        asyncio.run(scenario())

    def test_cancel_queued_job_is_immediate_and_skipped(self):
        async def scenario():
            executed = []

            async def handler(job):
                executed.append(job.id)
                job._finish(None, "", from_cache=False)

            scheduler = JobScheduler(handler, workers=1, max_queue=8)
            doomed = _job("doomed")
            survivor = _job("survivor")
            scheduler.submit(doomed)
            scheduler.submit(survivor)
            assert doomed.cancel() is True
            assert doomed.state is JobState.CANCELLED
            await scheduler.start()
            await survivor.wait()
            await scheduler.stop()
            assert executed == ["survivor"]
            # cancelling a finished job is a no-op
            assert doomed.cancel() is False

        asyncio.run(scenario())

    def test_cancel_running_job_stops_at_shard_boundary(self):
        async def scenario():
            first_shard = asyncio.Event()
            resume = asyncio.Event()

            async def handler(job):
                job._mark_running()
                job._deliver(_shard(trial=0))
                first_shard.set()
                await resume.wait()
                # the cooperative contract: poll the flag between shards
                if job.cancel_requested.is_set():
                    job._mark_cancelled()
                    return
                job._deliver(_shard(trial=1))
                job._finish(None, "", from_cache=False)

            scheduler = JobScheduler(handler, workers=1, max_queue=8)
            job = _job("long-running")
            scheduler.submit(job)
            await scheduler.start()
            await first_shard.wait()
            assert job.state is JobState.STREAMING
            assert job.cancel() is True  # running: flag only, not terminal yet
            assert job.state is JobState.STREAMING
            resume.set()
            await job.wait()
            await scheduler.stop()
            assert job.state is JobState.CANCELLED
            assert job.progress.shards_done == 1
            with pytest.raises(JobCancelledError):
                job.result_or_raise()

        asyncio.run(scenario())

    def test_handler_crash_fails_job_but_worker_survives(self):
        async def scenario():
            async def handler(job):
                if job.id == "bad":
                    raise RuntimeError("boom")
                job._finish(None, "", from_cache=False)

            scheduler = JobScheduler(handler, workers=1, max_queue=8)
            bad, good = _job("bad"), _job("good")
            scheduler.submit(bad)
            scheduler.submit(good)
            await scheduler.start()
            await bad.wait()
            await good.wait()
            await scheduler.stop()
            assert bad.state is JobState.FAILED
            assert isinstance(bad.error, RuntimeError)
            assert good.state is JobState.DONE

        asyncio.run(scenario())

    def test_stream_replays_buffer_for_late_subscribers(self):
        async def scenario():
            async def handler(job):
                job._mark_running()
                shards = [_shard(trial=trial) for trial in range(3)]
                for shard in shards:
                    job._deliver(shard)
                job._finish(
                    CampaignResult(job.config, blocks=shards), "", from_cache=False
                )

            scheduler = JobScheduler(handler, workers=1, max_queue=8)
            job = _job("replayed")
            scheduler.submit(job)
            await scheduler.start()
            await job.wait()
            await scheduler.stop()
            # subscribing after completion still yields the full sequence,
            # replayed from the job's result once the buffer is dropped
            assert job._shards == []
            handle = JobHandle(job)
            trials = [shard.slices[0].trial async for shard in handle.stream()]
            assert trials == [0, 1, 2]

        asyncio.run(scenario())
