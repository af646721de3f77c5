"""Fuzz the campaign server's request reader over raw bytes.

Every byte string a client can send must get one well-formed HTTP status
line back — a 4xx for malformed input — and nothing may raise inside
``CampaignHTTPServer._handle_connection`` (its catch-all answers 500, so
a 500 is a handler bug too).  Requests go straight into the handler
through an in-memory stream reader, without sockets.
"""

import asyncio
import json
import math
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import CampaignService
from repro.service.http import MAX_LINE_BYTES, CampaignHTTPServer

STATUS_LINE = re.compile(rb"HTTP/1\.1 (\d{3}) [A-Za-z ]+\r\n")

_METHODS = st.sampled_from(["GET", "POST", "get", "PUT", "DELETE", ""]) | st.text(
    max_size=8
)
_PATHS = st.sampled_from(
    [
        "/jobs",
        "/jobs/",
        "/stats",
        "/healthz",
        "/",
        "*",
        "/jobs/job-000001",
        "/jobs/job-000001/result",
        "/jobs/job-000001/stream",
        "/jobs/job-000001/analyses",
        "/jobs/job-000001/cancel",
        "/jobs?x=1",
    ]
) | st.text(max_size=30)
# Python's json reads and writes Infinity and NaN, which st.floats() rarely
# draws; pick the scalar kind uniformly so every kind shows up often
_SCALAR_KINDS = (
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.text(max_size=12),
)
_SCALARS = st.integers(0, len(_SCALAR_KINDS) - 1).flatmap(_SCALAR_KINDS.__getitem__)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)
_SUBMISSIONS = st.dictionaries(
    st.sampled_from(
        ["scenario", "scale", "priority", "use_cache", "coalesce", "overrides"]
    )
    | st.text(max_size=8),
    st.booleans().flatmap(lambda nested: _JSON_VALUES if nested else _SCALARS),
    max_size=5,
).map(lambda payload: json.dumps(payload).encode())
_BODIES = st.binary(max_size=64) | _SUBMISSIONS | _JSON_VALUES.map(
    lambda value: json.dumps(value).encode()
)
_HEADER_NAMES = st.sampled_from(
    ["Content-Length", "content-length", "Host", "Content-Type"]
) | st.text(max_size=12)


@st.composite
def http_requests(draw) -> bytes:
    """Request-shaped bytes: a request line, headers and a body, each
    possibly malformed (wrong or junk Content-Length, bare LF, missing
    blank line, truncated body)."""
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", ""]) | st.text(max_size=8))
    lines = [f"{draw(_METHODS)} {draw(_PATHS)} {version}"]
    body = draw(_BODIES)
    length = draw(
        st.sampled_from(["exact", "short", "long", "none", "junk", "huge"])
    )
    if length == "exact":
        lines.append(f"Content-Length: {len(body)}")
    elif length == "short":
        lines.append(f"Content-Length: {max(0, len(body) - 1)}")
    elif length == "long":
        lines.append(f"Content-Length: {len(body) + draw(st.integers(1, 64))}")
    elif length == "junk":
        lines.append(f"Content-Length: {draw(st.text(max_size=8))}")
    elif length == "huge":
        lines.append(f"Content-Length: {draw(st.integers(0, 10**30))}")
    headers = st.tuples(_HEADER_NAMES, st.text(max_size=16))
    for name, value in draw(st.lists(headers, max_size=4)):
        lines.append(f"{name}: {value}")
    head = eol.join(lines) + eol
    if draw(st.booleans()):
        head += eol  # the blank line ending the headers
    return head.encode("utf-8") + body


@st.composite
def job_submissions(draw) -> bytes:
    """Well-framed ``POST /jobs`` requests with arbitrary JSON bodies."""
    body = draw(_SUBMISSIONS)
    head = f"POST /jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


class _Writer:
    """The slice of ``asyncio.StreamWriter`` the handler uses."""

    def __init__(self) -> None:
        self.data = bytearray()

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


async def _exchange(server: CampaignHTTPServer, request: bytes) -> bytes:
    reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
    reader.feed_data(request)
    reader.feed_eof()
    writer = _Writer()
    await server._handle_connection(reader, writer)
    return bytes(writer.data)


def test_every_request_gets_a_status_line():
    loop = asyncio.new_event_loop()
    service = CampaignService(workers=1, executor_mode="thread")
    server = CampaignHTTPServer(service, port=0)
    loop.run_until_complete(service.start())
    try:

        @given(st.binary(max_size=512) | http_requests() | job_submissions())
        # found by this test: a body cut short of its Content-Length got no
        # answer, and an infinite priority was a 500
        @example(b"GET /jobs HTTP/1.1\r\nContent-Length: 2\r\n{}")
        @example(
            b"POST /jobs HTTP/1.1\r\nContent-Length: 39\r\n\r\n"
            b'{"scenario": "x", "priority": Infinity}'
        )
        @settings(max_examples=200, deadline=None)
        def check(request):
            response = loop.run_until_complete(_exchange(server, request))
            match = STATUS_LINE.match(response)
            assert match is not None, response[:80]
            status = int(match.group(1))
            assert status < 500, response
            head, _, body = response.partition(b"\r\n\r\n")
            assert b"Connection: close" in head
            assert json.loads(body) is not None
            if status >= 300:
                assert 400 <= status < 500

        check()
    finally:
        loop.run_until_complete(service.stop())
        loop.close()
