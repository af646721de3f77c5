"""End-to-end tests for the campaign service (async API + HTTP front end).

The acceptance bar for the service is bit-identity: a campaign submitted
through the async API (or over HTTP) must produce exactly the dataset that
``CampaignSession.run`` produces for the same config — coalesced, streamed
or not.  A gated backend (shards blocked on events the test releases)
makes the streaming/cancellation ordering deterministic.
"""

import asyncio
import gc
import hashlib
import json
import threading
import tracemalloc

import numpy as np
import pytest

from digests import CAMPAIGN_SMOKE_DIGESTS
from repro.apps.minife import MiniFEConfig
from repro.core.aggregation import campaign_block
from repro.core.timing import TimingDataset
from repro.experiments.backends import (
    CampaignBackend,
    ShardSpec,
    register_backend,
    unregister_backend,
)
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession, campaign_store_path
from repro.io.cache_tier import PRODUCTS_DIR, CacheTier
from repro.scenarios import get_scenario
from repro.service import (
    CampaignHTTPServer,
    CampaignService,
    JobCancelledError,
    JobState,
    ResultEvictedError,
    dataset_digest,
    shard_digest,
)
from repro.service import http as service_http
from repro.service.http import MAX_HEADER_LINES, MAX_LINE_BYTES

GATED_BACKEND = "integration-test-gated"
SCENARIO = "manzano-default"
#: the service-smoke digest of ``SCENARIO`` at smoke scale (MiniFE's smoke
#: recipe on the default campaign backend)
PINNED_DIGEST = CAMPAIGN_SMOKE_DIGESTS["minife"]
#: sha256 of ``json.dumps`` of the ordered ``[index, trial, process,
#: n_samples, digest]`` of every ``shard`` event a fresh smoke ``SCENARIO``
#: job's ``GET /jobs/<id>/stream`` sends: the NDJSON wire format, pinned
#: when shards became one-slice column blocks
PINNED_STREAM_EVENTS = "430864c479e1aae05938741bc876933a1dcd2a06eba63b17d5c9155b915d3b02"


def _session_digest(config: CampaignConfig) -> str:
    """The reference digest: what CampaignSession.run produces."""
    return dataset_digest(CampaignSession(config).run().dataset)


class GatedBackend(CampaignBackend):
    """Backend whose shards block until the test releases them.

    ``gates[(trial, process)]`` must be set before the shard returns, so a
    test controls exactly when each shard becomes available (and therefore
    when the service streams or observes a cancel flag).
    """

    gates = {}

    @classmethod
    def reset(cls, config: CampaignConfig) -> None:
        cls.gates = {
            (t, p): threading.Event()
            for t in range(config.trials)
            for p in range(config.processes)
        }

    def shard_specs(self, config):
        return [
            ShardSpec(trial=t, process=p)
            for t in range(config.trials)
            for p in range(config.processes)
        ]

    def unit_block(self, config, spec):
        if not type(self).gates[(spec.trial, spec.process)].wait(timeout=30):
            raise TimeoutError(f"gate for shard {spec} never released")
        value = float(spec.process + 1) * 1.0e-3
        times = np.full((1, config.iterations, config.threads), value)
        return campaign_block([(spec.trial, spec.process)], times)


@pytest.fixture()
def gated_backend():
    register_backend(GATED_BACKEND)(GatedBackend)
    try:
        yield GatedBackend
    finally:
        unregister_backend(GATED_BACKEND)


def _gated_config() -> CampaignConfig:
    config = CampaignConfig.smoke(application="minife")
    config = config.scaled(trials=1, processes=3)
    config.backend = GATED_BACKEND
    return config


class TestAsyncAPI:
    def test_three_jobs_two_identical_bit_identical_to_session(self):
        """The ISSUE acceptance scenario: 3 jobs, 2 identical, one distinct.

        The duplicate coalesces onto the in-flight job; every digest equals
        the one ``CampaignSession.run`` computes for the same config.
        """
        scenario_config = get_scenario(SCENARIO).campaign_config("smoke")
        distinct_config = CampaignConfig.smoke(application="minimd")

        async def scenario():
            async with CampaignService(workers=2, executor_mode="thread") as service:
                first = await service.submit(SCENARIO, scale="smoke")
                second = await service.submit(SCENARIO, scale="smoke")
                third = await service.submit(distinct_config)
                assert not first.coalesced
                assert second.coalesced and second.job is first.job
                assert third.job is not first.job
                results = await asyncio.gather(
                    first.result(), second.result(), third.result()
                )
                assert results[0] is results[1]
                stats = service.stats()
                assert stats["submitted"] == 3
                assert stats["coalesce_hits"] == 1
                return first.digest, third.digest

        shared_digest, distinct_digest = asyncio.run(scenario())
        assert shared_digest == _session_digest(scenario_config)
        assert distinct_digest == _session_digest(distinct_config)

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_queued_campaign_jobs_each_run_solo(self, campaign_folds, max_workers):
        """Three distinct ``campaign`` jobs queued behind one worker each
        run on their own: every job streams its per-(trial, process)
        shards, no whole-campaign schedule fold runs (MiniFE broadcasts
        one cached busy row: each fold is one ``(1, 1, n_pencils)`` row),
        and every digest is the session's."""
        configs = [
            get_scenario(SCENARIO).campaign_config(
                "smoke", backend="campaign", seed=seed, max_workers=max_workers
            )
            for seed in (7, 8, 9)
        ]

        async def collect(handle):
            return [shard async for shard in handle.stream()]

        async def scenario():
            async with CampaignService(workers=1, executor_mode="thread") as service:
                # submit never yields to the event loop, so all three jobs
                # wait in the queue before the worker claims the first
                handles = [await service.submit(config) for config in configs]
                assert service.stats()["queue_depth"] == 3
                streams = await asyncio.gather(*(collect(h) for h in handles))
                return [handle.digest for handle in handles], streams

        digests, streams = asyncio.run(scenario())
        pencils = MiniFEConfig().ny * MiniFEConfig().nz
        assert campaign_folds
        assert {shape for _, shape in campaign_folds} == {(1, 1, pencils)}
        for config, digest, shards in zip(configs, digests, streams):
            assert [s.slices[0].sort_key for s in shards] == [
                (trial, process)
                for trial in range(config.trials)
                for process in range(config.processes)
            ]
            assert digest == _session_digest(config)

    def test_queued_campaign_jobs_cache_what_they_streamed(self, tmp_path):
        """Queued ``campaign`` jobs each write their own cache entry: a
        later hit replays the miss's per-(trial, process) shards."""
        configs = [
            get_scenario(SCENARIO).campaign_config(
                "smoke", backend="campaign", seed=seed
            )
            for seed in (7, 8)
        ]

        async def collect(handle):
            return [
                (s.slices[0].sort_key, shard_digest(s))
                async for s in handle.stream()
            ]

        async def scenario():
            async with CampaignService(
                workers=1, executor_mode="thread", cache_dir=tmp_path
            ) as service:
                misses = [await service.submit(config) for config in configs]
                missed = await asyncio.gather(*(collect(h) for h in misses))
                hits = [await service.submit(config) for config in configs]
                replayed = await asyncio.gather(*(collect(h) for h in hits))
                assert not any(h.job.from_cache for h in misses)
                assert all(h.job.from_cache for h in hits)
                return missed, replayed

        missed, replayed = asyncio.run(scenario())
        assert replayed == missed
        for config, shards in zip(configs, missed):
            assert [key for key, _ in shards] == [
                (trial, process)
                for trial in range(config.trials)
                for process in range(config.processes)
            ]

    def test_stream_yields_shards_before_job_finishes(self, gated_backend):
        config = _gated_config()
        gated_backend.reset(config)

        async def scenario():
            async with CampaignService(workers=1, executor_mode="thread") as service:
                handle = await service.submit(config)
                stream = handle.stream()
                gated_backend.gates[(0, 0)].set()
                first = await asyncio.wait_for(anext(stream), timeout=10)
                # the first shard arrived while the campaign is still running
                assert handle.state is JobState.STREAMING
                assert not handle.job.finished
                assert first.slices[0].sort_key == (0, 0)
                for gate in gated_backend.gates.values():
                    gate.set()
                rest = [shard async for shard in stream]
                result = await handle.result()
                assert [s.slices[0].process for s in [first, *rest]] == [0, 1, 2]
                merged = TimingDataset.merge([first, *rest])
                assert dataset_digest(merged) == handle.digest
                assert dataset_digest(result.dataset) == handle.digest

        asyncio.run(scenario())

    def test_cancel_between_shards_stops_running_job(self, gated_backend):
        config = _gated_config()
        gated_backend.reset(config)

        async def scenario():
            async with CampaignService(workers=1, executor_mode="thread") as service:
                handle = await service.submit(config)
                queue = handle.job.subscribe()
                gated_backend.gates[(0, 0)].set()
                shard = await asyncio.wait_for(queue.get(), timeout=10)
                assert shard.slices[0].process == 0
                assert handle.cancel() is True
                # release the remaining gates: the worker thread produces the
                # next shard, then observes the flag at the shard boundary
                for gate in gated_backend.gates.values():
                    gate.set()
                await asyncio.wait_for(handle.job.wait(), timeout=10)
                assert handle.state is JobState.CANCELLED
                assert handle.progress.shards_done == 1
                with pytest.raises(JobCancelledError):
                    await handle.result()

        asyncio.run(scenario())

    def test_cache_dir_serves_repeat_submissions(self, tmp_path):
        config = get_scenario(SCENARIO).campaign_config("smoke")

        async def scenario():
            async with CampaignService(
                workers=1, executor_mode="thread", cache_dir=tmp_path
            ) as service:
                first = await service.submit(SCENARIO, scale="smoke")
                await first.result()
                assert not first.job.from_cache
                # sequential (not coalesced: first already finished) resubmit
                second = await service.submit(SCENARIO, scale="smoke")
                await second.result()
                assert second.job.from_cache
                assert second.digest == first.digest
                stats = service.stats()
                assert stats["cache_hits"] == 1
                assert stats["cache_misses"] == 1
                return first.digest

        digest = asyncio.run(scenario())
        assert digest == _session_digest(config)

    def test_cache_hit_replays_the_miss(self, tmp_path):
        """A hit streams the shards the miss stored and analyses identically."""

        async def scenario():
            async with CampaignService(
                workers=1, executor_mode="thread", cache_dir=tmp_path
            ) as service:
                runs = []
                for _ in range(2):
                    handle = await service.submit(SCENARIO, scale="smoke")
                    digests = [shard_digest(s) async for s in handle.stream()]
                    await handle.result()
                    analyses = await service.job_analyses(handle.job)
                    runs.append((handle, digests, analyses))
                miss, miss_digests, miss_analyses = runs[0]
                hit, hit_digests, hit_analyses = runs[1]
                assert not miss.job.from_cache and hit.job.from_cache
                assert hit_digests == miss_digests
                assert hit.job.progress.shards_total == len(miss_digests)
                assert hit.digest == miss.digest == PINNED_DIGEST
                assert json.dumps(hit_analyses["analyses"], sort_keys=True) == (
                    json.dumps(miss_analyses["analyses"], sort_keys=True)
                )
                # the cache holds one shard store and, in its products
                # directory, one product per pass; nothing else is written
                store = campaign_store_path(tmp_path, miss.job.config)
                assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
                    [PRODUCTS_DIR, store.name]
                )
                products = (tmp_path / PRODUCTS_DIR).iterdir()
                assert sorted(p.suffix for p in products) == [".pkl"] * 6

        asyncio.run(scenario())

    def test_analysed_config_is_answered_without_a_fold(self, tmp_path, monkeypatch):
        """A second job of an analysed config loads every pass's product
        from the cache: the same payload, and no fold of its samples."""
        import repro.analysis as analysis

        folds = []
        fold = analysis.run_columnar_analyses

        def recording_fold(blocks, *args, **kwargs):
            folds.append(args)
            return fold(blocks, *args, **kwargs)

        monkeypatch.setattr(analysis, "run_columnar_analyses", recording_fold)

        async def scenario():
            async with CampaignService(
                workers=1, executor_mode="thread", cache_dir=tmp_path
            ) as service:
                first = await service.submit(SCENARIO, scale="smoke")
                miss = await service.job_analyses(first.job)
                assert len(folds) == 1
                second = await service.submit(SCENARIO, scale="smoke")
                hit = await service.job_analyses(second.job)
                assert second.job.from_cache
                assert len(folds) == 1
                assert hit["digest"] == miss["digest"] == PINNED_DIGEST
                assert json.dumps(hit["analyses"], sort_keys=True) == (
                    json.dumps(miss["analyses"], sort_keys=True)
                )
                stats = service.stats()
                assert stats["analysis_cache_misses"] == 6
                assert stats["analysis_cache_hits"] == 6

        asyncio.run(scenario())

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        """A truncated group file is healed: counted as a miss, recomputed."""
        config = get_scenario(SCENARIO).campaign_config("smoke")
        CampaignSession(config, cache_dir=tmp_path).run()
        group = campaign_store_path(tmp_path, config) / "group-00000.bin"
        group.write_bytes(group.read_bytes()[:64])

        async def scenario():
            async with CampaignService(
                workers=1, executor_mode="thread", cache_dir=tmp_path
            ) as service:
                first = await service.submit(SCENARIO, scale="smoke")
                await first.result()
                assert not first.job.from_cache
                assert first.digest == PINNED_DIGEST
                second = await service.submit(SCENARIO, scale="smoke")
                await second.result()
                assert second.job.from_cache  # the rewritten entry is healthy
                assert second.digest == PINNED_DIGEST
                stats = service.stats()
                assert (stats["cache_misses"], stats["cache_hits"]) == (1, 1)

        asyncio.run(scenario())


    def test_failed_fold_releases_its_lock(self):
        """A fold that raises drops the job's analyses lock; a retry works."""

        async def scenario():
            async with CampaignService(workers=1, executor_mode="thread") as service:
                compute = service._compute_analyses
                calls = []

                def flaky(*args):
                    calls.append(args)
                    if len(calls) == 1:
                        raise RuntimeError("fold failed")
                    return compute(*args)

                service._compute_analyses = flaky
                handle = await service.submit(SCENARIO, scale="smoke")
                with pytest.raises(RuntimeError, match="fold failed"):
                    await service.job_analyses(handle.job)
                assert service._analyses_locks == {}
                payload = await service.job_analyses(handle.job)
                assert payload["digest"] == PINNED_DIGEST
                assert len(payload["analyses"]) == 6
                assert service._analyses_locks == {}
                assert len(calls) == 2

        asyncio.run(scenario())


def _seed_configs(seeds, scale="smoke"):
    return [
        get_scenario(SCENARIO).campaign_config(scale, backend="campaign", seed=seed)
        for seed in seeds
    ]


class TestRetention:
    """What a finished job keeps: its status, digest and store handle, with
    its samples and analysis products in cache entries rather than on the
    heap."""

    def test_analysed_jobs_read_their_samples_back_from_the_store(self, tmp_path):
        configs = _seed_configs((21, 22, 23))

        async def scenario():
            async with CampaignService(
                workers=1, executor_mode="thread", cache_dir=tmp_path
            ) as service:
                for config in configs:
                    handle = await service.submit(config)
                    live = [shard_digest(s) async for s in handle.stream()]
                    await service.job_analyses(handle.job)
                    job = handle.job
                    assert not job.from_cache
                    assert job.result.store is not None
                    assert job._shards == []
                    assert job.result._dataset is None
                    # a late subscriber replays the live stream from disk
                    replayed = [shard_digest(s) async for s in handle.stream()]
                    assert replayed == live
                    assert [shard_digest(s) for s in job.shards] == live
                    assert len(live) == job.progress.shards_total
                    assert job.digest == _session_digest(config)
                    assert job.result._dataset is None

        asyncio.run(scenario())

    def test_jobs_without_a_cache_keep_their_blocks(self):
        configs = _seed_configs((21, 22))

        async def scenario():
            async with CampaignService(workers=1, executor_mode="thread") as service:
                for config in configs:
                    handle = await service.submit(config)
                    await service.job_analyses(handle.job)
                    result = handle.job.result
                    assert result.store is None
                    assert result._blocks is not None
                    assert handle.job._shards == []
                    assert result._dataset is None
                    assert handle.digest == _session_digest(config)

        asyncio.run(scenario())

    def test_retained_memory_per_analysed_job_is_bounded(self, tmp_path):
        """Twenty more benchmark-scale jobs, analyses fetched, each keep
        far less than their 1.5 MB of samples and less than their ~60 KB
        analyses payload (traced heap growth)."""
        n_warm, n_jobs = 3, 20
        configs = _seed_configs(range(100, 100 + n_warm + n_jobs), "benchmark")

        async def scenario():
            async with CampaignService(
                workers=1, executor_mode="thread", cache_dir=tmp_path
            ) as service:
                for index, config in enumerate(configs):
                    if index == n_warm:
                        gc.collect()
                        before = tracemalloc.get_traced_memory()[0]
                    handle = await service.submit(config)
                    await service.job_analyses(handle.job)
                gc.collect()
                return (tracemalloc.get_traced_memory()[0] - before) / n_jobs

        tracemalloc.start()
        try:
            per_job = asyncio.run(scenario())
        finally:
            tracemalloc.stop()
        assert per_job < 40e3, f"{per_job / 1e3:.1f} KB retained per job"


async def _http_request(host, port, method, path, body=None):
    """Minimal HTTP/1.1 client: one request, read to EOF (Connection: close)."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(-1), timeout=60)
    writer.close()
    await writer.wait_closed()
    head, _, body_blob = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    return status, body_blob


class TestHTTPFrontEnd:
    def test_submit_stream_result_round_trip(self):
        config = get_scenario(SCENARIO).campaign_config("smoke")
        expected = _session_digest(config)

        async def scenario():
            service = CampaignService(workers=1, executor_mode="thread")
            async with CampaignHTTPServer(service, port=0) as server:
                host, port = server.host, server.port
                status, body = await _http_request(
                    host, port, "POST", "/jobs",
                    body={"scenario": SCENARIO, "scale": "smoke"},
                )
                assert status == 202
                submitted = json.loads(body)
                job_id = submitted["job_id"]
                assert submitted["coalesced"] is False

                status, body = await _http_request(
                    host, port, "GET", f"/jobs/{job_id}/stream"
                )
                assert status == 200
                events = [json.loads(line) for line in body.splitlines() if line]
                shard_events = [e for e in events if e["event"] == "shard"]
                done = events[-1]
                assert done["event"] == "done"
                assert done["state"] == "done"
                assert len(shard_events) == done["shards_total"]
                assert all(len(e["digest"]) == 64 for e in shard_events)

                status, body = await _http_request(
                    host, port, "GET", f"/jobs/{job_id}/result"
                )
                assert status == 200
                result = json.loads(body)
                assert result["state"] == "done"
                assert result["digest"] == expected

                status, body = await _http_request(host, port, "GET", "/stats")
                assert status == 200
                stats = json.loads(body)
                assert stats["submitted"] == 1
                assert stats["jobs"]["done"] == 1

                # the per-shard stream digests match the job's own shards
                job = service.get_job(job_id)
                assert [e["digest"] for e in shard_events] == [
                    shard_digest(s) for s in job.shards
                ]

                # finalized analysis products over HTTP: the payload is the
                # streaming engine's own JSON view of the same campaign
                status, body = await _http_request(
                    host, port, "GET", f"/jobs/{job_id}/analyses"
                )
                assert status == 200
                payload = json.loads(body)
                assert payload["job_id"] == job_id
                assert payload["digest"] == expected
                assert payload["analyses"] == expected_analyses
                # second fetch is served from the per-job memo, identically
                status, body = await _http_request(
                    host, port, "GET", f"/jobs/{job_id}/analyses"
                )
                assert status == 200
                assert json.loads(body) == payload

        expected_analyses = json.loads(
            json.dumps(CampaignSession(config).analyze(analyses="all").as_payload())
        )
        asyncio.run(scenario())

    def test_stream_wire_format_is_pinned(self):
        async def scenario():
            service = CampaignService(workers=1, executor_mode="thread")
            async with CampaignHTTPServer(service, port=0) as server:
                host, port = server.host, server.port
                _, body = await _http_request(
                    host, port, "POST", "/jobs",
                    body={"scenario": SCENARIO, "scale": "smoke"},
                )
                job_id = json.loads(body)["job_id"]
                status, body = await _http_request(
                    host, port, "GET", f"/jobs/{job_id}/stream"
                )
                assert status == 200
                return [json.loads(line) for line in body.splitlines() if line]

        events = asyncio.run(scenario())
        shards = [
            [e[k] for k in ("index", "trial", "process", "n_samples", "digest")]
            for e in events
            if e["event"] == "shard"
        ]
        assert events[-1]["digest"] == PINNED_DIGEST
        blob = json.dumps(shards).encode("utf-8")
        assert hashlib.sha256(blob).hexdigest() == PINNED_STREAM_EVENTS

    def test_http_error_paths(self):
        async def scenario():
            service = CampaignService(workers=1, executor_mode="thread")
            async with CampaignHTTPServer(service, port=0) as server:
                host, port = server.host, server.port
                status, _ = await _http_request(host, port, "GET", "/jobs/nope")
                assert status == 404
                status, body = await _http_request(
                    host, port, "POST", "/jobs", body={"scale": "smoke"}
                )
                assert status == 400
                assert b"scenario" in body
                status, _ = await _http_request(host, port, "DELETE", "/jobs")
                assert status == 405
                status, _ = await _http_request(host, port, "GET", "/healthz")
                assert status == 200

        asyncio.run(scenario())

    @pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
    def test_malformed_content_length_is_bad_request(self, length):
        """A Content-Length that is not a plain digit string is a 400
        naming the header, not a 500 from ``int()`` / ``readexactly``."""

        async def scenario():
            service = CampaignService(workers=1, executor_mode="thread")
            async with CampaignHTTPServer(service, port=0) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    (
                        "POST /jobs HTTP/1.1\r\n"
                        f"Host: {server.host}\r\n"
                        f"Content-Length: {length}\r\n"
                        "Connection: close\r\n\r\n{}"
                    ).encode()
                )
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(-1), timeout=10)
                writer.close()
                await writer.wait_closed()
                head, _, body = raw.partition(b"\r\n\r\n")
                assert int(head.split(None, 2)[1]) == 400
                assert "Content-Length" in json.loads(body)["error"]
                assert service.stats()["submitted"] == 0

        asyncio.run(scenario())

    @staticmethod
    async def _raw_exchange(server, head: bytes):
        """Send ``head`` on a raw socket; the response's status and JSON body."""
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(head)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout=10)
        writer.close()
        await writer.wait_closed()
        status_line, _, body = raw.partition(b"\r\n\r\n")
        return int(status_line.split(None, 2)[1]), json.loads(body)

    @pytest.mark.parametrize(
        "n_headers, status", [(MAX_HEADER_LINES, 200), (MAX_HEADER_LINES + 1, 431)]
    )
    def test_header_count_is_capped(self, n_headers, status):
        """Up to ``MAX_HEADER_LINES`` header lines are served; one more is a
        431 naming the limit, not an unbounded read."""

        async def scenario():
            service = CampaignService(workers=1, executor_mode="thread")
            async with CampaignHTTPServer(service, port=0) as server:
                extra = "".join(f"X-Filler-{k}: {k}\r\n" for k in range(n_headers - 1))
                head = f"GET /healthz HTTP/1.1\r\nHost: {server.host}\r\n{extra}\r\n"
                got, payload = await self._raw_exchange(server, head.encode())
                assert got == status
                if status == 431:
                    assert str(MAX_HEADER_LINES) in payload["error"]

        asyncio.run(scenario())

    @pytest.mark.parametrize("where, status", [("header", 431), ("request", 400)])
    def test_overlong_line_is_a_client_error(self, where, status):
        """A line longer than the reader's limit is a 4xx (431 for a header
        line, 400 for the request line), not the catch-all 500."""

        async def scenario():
            service = CampaignService(workers=1, executor_mode="thread")
            async with CampaignHTTPServer(service, port=0) as server:
                long = "a" * (MAX_LINE_BYTES + 10)
                if where == "header":
                    head = f"GET /healthz HTTP/1.1\r\nX-Long: {long}\r\n\r\n"
                else:
                    head = f"GET /{long} HTTP/1.1\r\n\r\n"
                got, payload = await self._raw_exchange(server, head.encode())
                assert got == status
                assert f"{where} line longer than" in payload["error"]
                assert service.stats()["submitted"] == 0

        asyncio.run(scenario())

    def test_stalled_request_times_out_while_others_are_served(self, monkeypatch):
        """A client that stalls mid-request line gets a 408 and a closed
        connection after the read deadline; a concurrent ``/healthz`` is
        answered meanwhile."""
        monkeypatch.setattr(service_http, "REQUEST_READ_TIMEOUT_S", 0.2)

        async def scenario():
            service = CampaignService(workers=1, executor_mode="thread")
            async with CampaignHTTPServer(service, port=0) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"GET /hea")  # no CRLF: the request line stalls
                await writer.drain()
                status, payload = await _http_request(
                    server.host, server.port, "GET", "/healthz"
                )
                assert status == 200 and json.loads(payload) == {"status": "ok"}
                # read(-1) returns only at EOF: the server closed the socket
                raw = await asyncio.wait_for(reader.read(-1), timeout=10)
                writer.close()
                await writer.wait_closed()
                head, _, body = raw.partition(b"\r\n\r\n")
                assert int(head.split(None, 2)[1]) == 408
                assert "within 0.2 s" in json.loads(body)["error"]

        asyncio.run(scenario())

    def test_analyses_endpoint_conflicts_on_cancelled_job(self, gated_backend):
        """``GET /jobs/<id>/analyses`` on a non-``done`` terminal job is a
        409, not a 500: there is no dataset to analyse."""
        config = _gated_config()
        gated_backend.reset(config)

        async def scenario():
            service = CampaignService(workers=1, executor_mode="thread")
            async with CampaignHTTPServer(service, port=0) as server:
                handle = await service.submit(config)
                assert handle.cancel() is True
                for gate in gated_backend.gates.values():
                    gate.set()
                await asyncio.wait_for(handle.job.wait(), timeout=10)
                status, body = await _http_request(
                    server.host, server.port,
                    "GET", f"/jobs/{handle.job.id}/analyses",
                )
                assert status == 409
                error = json.loads(body)
                assert error["state"] == "cancelled"
                assert "analyses need a completed job" in error["error"]

        asyncio.run(scenario())

    def test_stream_of_an_evicted_job_is_gone(self, tmp_path):
        """A done job whose cache entry was evicted cannot replay: its
        stream is a 410 with the job status, not a half-written stream."""
        job_a, job_b = _seed_configs((31, 32))
        probe = tmp_path / "probe"
        CampaignSession(job_a, cache_dir=probe).run()
        entry_bytes = CacheTier(probe).total_bytes

        async def scenario():
            service = CampaignService(
                workers=1,
                executor_mode="thread",
                cache_dir=tmp_path / "cache",
                cache_max_bytes=entry_bytes * 3 // 2,
            )
            async with CampaignHTTPServer(service, port=0) as server:
                first = await service.submit(job_a)
                await service.job_analyses(first.job)
                entry = first.job.result.store.path
                assert entry.exists()
                second = await service.submit(job_b)
                await service.job_analyses(second.job)
                assert not entry.exists()  # B's write evicted A

                with pytest.raises(ResultEvictedError) as raised:
                    first.job.subscribe()
                assert first.job.id in str(raised.value)
                assert str(entry) in str(raised.value)

                status, body = await _http_request(
                    server.host, server.port,
                    "GET", f"/jobs/{first.job.id}/stream",
                )
                assert status == 410
                gone = json.loads(body)
                assert gone["state"] == "done"
                assert gone["digest"] == first.digest
                assert "evicted" in gone["error"]
                # A's products are kept outside the tier's budget, so its
                # analyses outlive its store and load without a fold
                status, body = await _http_request(
                    server.host, server.port,
                    "GET", f"/jobs/{first.job.id}/analyses",
                )
                assert status == 200
                assert json.loads(body)["digest"] == first.digest
                assert service.stats()["analysis_cache_hits"] == 6
                # B's entry is intact and still streams
                status, body = await _http_request(
                    server.host, server.port,
                    "GET", f"/jobs/{second.job.id}/stream",
                )
                assert status == 200
                events = [json.loads(line) for line in body.splitlines()]
                assert events[-1]["digest"] == second.digest

        asyncio.run(scenario())

    def test_analyses_of_an_evicted_cache_hit_are_gone(self, tmp_path):
        """A cache hit folds its analyses from its entry: if the tier
        evicts the entry first, ``/analyses`` is a 410, not a 500."""
        config = get_scenario(SCENARIO).campaign_config("smoke")
        CampaignSession(config, cache_dir=tmp_path).run()

        async def scenario():
            service = CampaignService(
                workers=1, executor_mode="thread", cache_dir=tmp_path
            )
            async with CampaignHTTPServer(service, port=0) as server:
                handle = await service.submit(config)
                await handle.result()
                assert handle.job.from_cache
                assert CacheTier(tmp_path, max_bytes=0).prune() == [
                    handle.job.result.store.path
                ]
                status, body = await _http_request(
                    server.host, server.port,
                    "GET", f"/jobs/{handle.job.id}/analyses",
                )
                assert status == 410
                gone = json.loads(body)
                assert gone["state"] == "done"
                assert handle.job.id in gone["error"]

        asyncio.run(scenario())


#: the campaign CLI's own modules, which a serving process never uses
_CAMPAIGN_CLI_MODULES = (
    "repro.experiments.runner",
    "repro.experiments.figures",
    "repro.experiments.tables",
    "repro.experiments.paper",
    "repro.viz",
)

#: the ``serve`` subcommand's start-up (stopped at its parser), then one
#: served job; prints the campaign CLI modules loaded by then
_SERVE_THEN_ONE_JOB = f"""
import asyncio, json, sys
from repro.commands import main
try:
    main(["serve", "--help"])
except SystemExit:
    pass
from repro.service import CampaignService

async def job():
    async with CampaignService(workers=1, executor_mode="thread") as service:
        handle = await service.submit({SCENARIO!r}, scale="smoke")
        await handle.result()
        await service.job_analyses(handle.job)

asyncio.run(job())
print(json.dumps(sorted(
    m for m in sys.modules if m.startswith({_CAMPAIGN_CLI_MODULES!r})
)))
"""


def test_serving_never_loads_the_campaign_cli():
    """``python -m repro serve`` dispatches before the campaign runner is
    imported, and a served job loads none of the CLI's modules."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", _SERVE_THEN_ONE_JOB],
        capture_output=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr.decode()[-2000:]
    assert json.loads(run.stdout.decode().splitlines()[-1]) == []
