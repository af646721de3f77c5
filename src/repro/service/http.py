"""Stdlib-only HTTP front end for the campaign service.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no dependencies — exposing :class:`~repro.service.api.CampaignService`
to remote clients:

========================  ====================================================
``POST /jobs``            submit ``{"scenario": ..., "scale": ...,
                          "priority": ..., ...}``; responds ``202`` with the
                          job status (``429`` when admission control rejects)
``GET /jobs/<id>``        current job status (state, progress, digest)
``GET /jobs/<id>/result`` block until terminal, then the final status
``GET /jobs/<id>/stream`` newline-delimited JSON: one ``shard`` event per
                          produced shard as it lands, then a ``done`` event
                          (``410`` when a done job's cache entry, which
                          its shards are replayed from, was evicted)
``GET /jobs/<id>/analyses`` block until terminal, then every finalized
                          analysis-pass product as JSON (read from the
                          product cache, folded over the job's column
                          blocks only where it misses; ``409`` for
                          failed or cancelled jobs, ``410`` for a job
                          whose entry was evicted before the fold)
``POST /jobs/<id>/cancel``request cooperative cancellation
``GET /stats``            service counters (queue depth, coalescing, caches)
========================  ====================================================

Every response carries ``Connection: close`` — one request per connection
keeps the parser honest and the streaming endpoint trivially correct.
Requests are bounded: a body over :data:`MAX_BODY_BYTES` or a malformed
``Content-Length`` is a ``400``; more than :data:`MAX_HEADER_LINES` header
lines or a header line over :data:`MAX_LINE_BYTES` is a ``431``; a client
that has not sent its whole request within :data:`REQUEST_READ_TIMEOUT_S`
gets a ``408``.  The stream endpoint is the HTTP face of
``async for shard in handle.stream()``: each shard (a one-slice column
block) is serialised as a summary (trial, process, sample count, shard
digest) rather than raw arrays, which is what the CLI progress printer
and the CI smoke check consume; the full
dataset digest arrives with the ``done`` event and is compared against the
pinned scenario-matrix digests.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from repro.service.api import CampaignService
from repro.service.jobs import (
    _END,
    Job,
    JobState,
    ResultEvictedError,
    shard_digest,
)
from repro.service.queue import RejectedError

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}

#: request bodies larger than this are rejected (submissions are tiny)
MAX_BODY_BYTES = 1 << 20

#: longest request or header line (the connection reader's buffer limit)
MAX_LINE_BYTES = 1 << 16

#: requests with more header lines than this are rejected (431)
MAX_HEADER_LINES = 100

#: seconds a client has to send its whole request (request line, headers
#: and body); a client that stalls longer gets a 408 and the connection closes
REQUEST_READ_TIMEOUT_S = 30


class _BadRequest(Exception):
    """Maps to a 4xx response (``status``, 400 by default) with the message
    as the error field."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader, what: str, status: int) -> str:
    """One CRLF-terminated line; ``status`` answers one over the length limit."""
    try:
        return (await reader.readline()).decode("latin-1")
    except ValueError as error:  # readline's form of LimitOverrunError
        message = f"{what} longer than {MAX_LINE_BYTES} bytes"
        raise _BadRequest(message, status) from error


class CampaignHTTPServer:
    """HTTP face of a :class:`CampaignService`.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start` to discover it (the tests and the smoke check do).
    """

    def __init__(
        self,
        service: CampaignService,
        *,
        host: str = "127.0.0.1",
        port: int = 8642,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._server is not None

    async def start(self) -> None:
        """Start the service (if needed) and begin accepting connections."""
        if self._server is not None:
            return
        if not self.service.started:
            await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        # resolve the actual port when an ephemeral one was requested
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``python -m repro serve`` main loop)."""
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "CampaignHTTPServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._respond(reader, writer)
        except ConnectionError:
            pass  # client went away mid-exchange
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _respond(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read one request and answer it: 4xx for a malformed request,
        500 (keeping the server alive) for a handler bug."""
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), REQUEST_READ_TIMEOUT_S
                )
            except asyncio.TimeoutError as error:  # not the builtin on py3.10
                message = f"request not received within {REQUEST_READ_TIMEOUT_S} s"
                raise _BadRequest(message, 408) from error
            await self._route(writer, method, path, body)
        except _BadRequest as error:
            await self._send_json(writer, error.status, {"error": str(error)})
        except ConnectionError:
            raise
        except Exception as error:  # defensive: keep the server alive
            await self._send_json(writer, 500, {"error": repr(error)})

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        request_line = (await _read_line(reader, "request line", 400)).strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line: {request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES + 1):
            line = await _read_line(reader, "header line", 431)
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(f"more than {MAX_HEADER_LINES} header lines", 431)
        raw_length = headers.get("content-length", "0") or "0"
        # RFC 9110: 1*DIGIT — no sign, exponent or separators
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _BadRequest(f"invalid Content-Length: {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise _BadRequest(f"request body too large ({length} bytes)")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as error:
            message = f"body ended after {len(error.partial)} of {length} bytes"
            raise _BadRequest(message) from error
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    async def _route(
        self, writer: asyncio.StreamWriter, method: str, path: str, body: bytes
    ) -> None:
        if path == "/jobs":
            if method != "POST":
                await self._send_json(writer, 405, {"error": "use POST /jobs"})
                return
            await self._submit(writer, body)
            return
        if path == "/stats":
            await self._send_json(writer, 200, self.service.stats())
            return
        if path == "/healthz":
            await self._send_json(writer, 200, {"status": "ok"})
            return
        if path.startswith("/jobs/"):
            segments = path[len("/jobs/"):].split("/")
            job = self.service.get_job(segments[0])
            if job is None:
                await self._send_json(
                    writer, 404, {"error": f"unknown job {segments[0]!r}"}
                )
                return
            action = segments[1] if len(segments) > 1 else None
            if action is None and method == "GET":
                await self._send_json(writer, 200, job.status())
            elif action == "result" and method == "GET":
                await job.wait()
                await self._send_json(writer, 200, job.status())
            elif action == "stream" and method == "GET":
                await self._stream(writer, job)
            elif action == "analyses" and method == "GET":
                await self._analyses(writer, job)
            elif action == "cancel" and method == "POST":
                cancelled = job.cancel()
                await self._send_json(
                    writer, 200, {"cancelled": cancelled, **job.status()}
                )
            else:
                await self._send_json(
                    writer, 405, {"error": f"unsupported {method} {path}"}
                )
            return
        await self._send_json(writer, 404, {"error": f"no route for {path}"})

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    async def _submit(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest(f"body is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise _BadRequest("body must be a JSON object")
        scenario = payload.get("scenario")
        if not isinstance(scenario, str) or not scenario:
            raise _BadRequest('"scenario" (string) is required')
        overrides = payload.get("overrides", {})
        if not isinstance(overrides, dict):
            raise _BadRequest('"overrides" must be a JSON object')
        try:
            handle = await self.service.submit(
                scenario,
                scale=payload.get("scale"),
                priority=int(payload.get("priority", 0)),
                use_cache=bool(payload.get("use_cache", True)),
                coalesce=bool(payload.get("coalesce", True)),
                **overrides,
            )
        except RejectedError as error:
            await self._send_json(
                writer,
                429,
                {
                    "error": str(error),
                    "depth": error.depth,
                    "max_depth": error.max_depth,
                },
            )
            return
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            # OverflowError: an infinite "priority" (json reads Infinity)
            raise _BadRequest(str(error)) from error
        await self._send_json(
            writer, 202, {"coalesced": handle.coalesced, **handle.status()}
        )

    async def _stream(self, writer: asyncio.StreamWriter, job: Job) -> None:
        """Newline-delimited JSON shard stream (one event per line)."""
        try:
            queue = job.subscribe()
        except ResultEvictedError as error:
            await self._send_json(writer, 410, {"error": str(error), **job.status()})
            return
        await self._send_headers(
            writer, 200, content_type="application/x-ndjson"
        )
        index = 0

        async def emit(event: Dict[str, object]) -> None:
            writer.write(json.dumps(event).encode("utf-8") + b"\n")
            await writer.drain()

        try:
            while True:
                shard = await queue.get()
                if shard is _END:
                    break
                await emit(
                    {
                        "event": "shard",
                        "index": index,
                        "trial": shard.slices[0].trial,
                        "process": shard.slices[0].process,
                        "n_samples": shard.n_samples,
                        "digest": shard_digest(shard),
                    }
                )
                index += 1
            await emit({"event": "done", **job.status()})
        except ConnectionError:
            pass  # client hung up mid-stream; the job keeps running
        # body has no Content-Length: Connection: close delimits it

    async def _analyses(self, writer: asyncio.StreamWriter, job: Job) -> None:
        """Finalized analysis products of a completed job (blocks until
        terminal; only ``done`` jobs have a dataset to analyse)."""
        await job.wait()
        if job.state is not JobState.DONE:
            await self._send_json(
                writer,
                409,
                {
                    "error": (
                        f"job {job.id} is {job.state.value}; "
                        "analyses need a completed job"
                    ),
                    **job.status(),
                },
            )
            return
        try:
            payload = await self.service.job_analyses(job)
        except ResultEvictedError as error:
            await self._send_json(writer, 410, {"error": str(error), **job.status()})
            return
        await self._send_json(writer, 200, payload)

    # ------------------------------------------------------------------
    # response plumbing
    # ------------------------------------------------------------------
    async def _send_headers(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        *,
        content_type: str,
        content_length: Optional[int] = None,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        if content_length is not None:
            lines.append(f"Content-Length: {content_length}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, object]
    ) -> None:
        body = json.dumps(payload).encode("utf-8") + b"\n"
        await self._send_headers(
            writer,
            status,
            content_type="application/json",
            content_length=len(body),
        )
        writer.write(body)
        await writer.drain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "listening" if self.started else "stopped"
        return f"CampaignHTTPServer({self.url}, {state})"


__all__ = [
    "CampaignHTTPServer",
    "MAX_BODY_BYTES",
    "MAX_HEADER_LINES",
    "MAX_LINE_BYTES",
    "REQUEST_READ_TIMEOUT_S",
]
