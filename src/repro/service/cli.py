"""``python -m repro serve`` / ``python -m repro submit``.

Two thin subcommands in front of the campaign service:

* ``serve`` hosts :class:`~repro.service.http.CampaignHTTPServer` in the
  foreground until interrupted::

      python -m repro serve --host 127.0.0.1 --port 8642 --workers 2 \\
          --max-queue 32 --cache-dir cache/

* ``submit`` POSTs a scenario to a running server, follows the
  newline-delimited JSON shard stream pretty-printing progress as shards
  land, and exits with the job's fate (non-zero for failed/cancelled jobs
  or a digest mismatch)::

      python -m repro submit manzano-default --scale smoke \\
          --url http://127.0.0.1:8642 \\
          --expect-digest e00daed36dd885b6...

  ``--expect-digest`` is what the CI smoke check uses: the streamed job's
  final dataset digest must equal the pinned scenario-matrix digest,
  proving the HTTP path end to end is bit-identical to
  :meth:`CampaignSession.run <repro.experiments.session.CampaignSession.run>`.

The client side is synchronous ``urllib.request`` on purpose — it doubles
as a living example that the service needs nothing special on the consumer
end.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import urllib.error
import urllib.request
from pathlib import Path
from typing import Optional, Sequence

from repro.commands import positive_int

#: the serve subcommand's default bind (shared with submit's default URL)
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign serve",
        description="Host the campaign service over HTTP (POST /jobs, "
        "GET /jobs/<id>[/result|/stream], GET /stats).",
    )
    parser.add_argument("--host", default=DEFAULT_HOST, help="bind address")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers",
        type=positive_int,
        default=2,
        help="concurrent jobs (default: 2)",
    )
    parser.add_argument(
        "--max-queue",
        type=positive_int,
        default=32,
        help="admission bound: queued jobs beyond this are rejected with "
        "HTTP 429 (default: 32)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="serve completed configurations from this campaign cache",
    )
    parser.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="cache-tier size budget in MiB; least-recently-used entries "
        "are evicted over budget (default: $REPRO_CACHE_MAX_BYTES)",
    )
    parser.add_argument(
        "--executor-mode",
        choices=("process", "thread"),
        default="process",
        help="within-job shard executor flavour (default: process)",
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "benchmark", "paper"),
        default="smoke",
        help="default campaign scale for submissions that omit one "
        "(default: smoke)",
    )
    parser.add_argument(
        "--port-file",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the bound port to this file once listening (with "
        "--port 0 this is how scripts learn the ephemeral port; the CI "
        "service smoke job reads it instead of hardcoding a port)",
    )
    return parser


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro serve``."""
    from repro.service.api import CampaignService
    from repro.service.http import CampaignHTTPServer

    args = build_serve_parser().parse_args(argv)
    service = CampaignService(
        workers=args.workers,
        max_queue=args.max_queue,
        cache_dir=args.cache_dir,
        cache_max_bytes=(
            int(args.cache_max_mb * 2**20) if args.cache_max_mb is not None else None
        ),
        executor_mode=args.executor_mode,
        default_scale=args.scale,
    )
    server = CampaignHTTPServer(service, host=args.host, port=args.port)

    async def run() -> None:
        await server.start()
        print(
            f"[repro-serve] listening on {server.url} "
            f"({args.workers} worker(s), max queue {args.max_queue}, "
            f"cache {args.cache_dir or 'disabled'})",
            flush=True,
        )
        # machine-readable bound-port line: with --port 0 the OS picks the
        # port, and scripts (the CI service smoke job) parse it from here
        # or from --port-file rather than assuming a fixed port is free
        print(f"[repro-serve] port={server.port}", flush=True)
        if args.port_file is not None:
            args.port_file.parent.mkdir(parents=True, exist_ok=True)
            args.port_file.write_text(f"{server.port}\n")
        assert server._server is not None
        await server._server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("[repro-serve] interrupted, shutting down", flush=True)
    return 0


# ----------------------------------------------------------------------
# submit
# ----------------------------------------------------------------------
def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign submit",
        description="Submit a scenario to a running campaign server and "
        "stream its shard progress.",
    )
    parser.add_argument("scenario", help="registered scenario name")
    parser.add_argument(
        "--url",
        default=f"http://{DEFAULT_HOST}:{DEFAULT_PORT}",
        help="server base URL (default: %(default)s)",
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "benchmark", "paper"),
        default=None,
        help="campaign scale (default: the server's default)",
    )
    parser.add_argument(
        "--priority", type=int, default=0, help="job priority (higher runs first)"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the server's campaign cache for this job",
    )
    parser.add_argument(
        "--no-coalesce",
        action="store_true",
        help="never attach to an identical in-flight job",
    )
    parser.add_argument(
        "--no-stream",
        action="store_true",
        help="skip the shard stream; just wait for the final result",
    )
    parser.add_argument(
        "--expect-digest",
        default=None,
        metavar="SHA256",
        help="fail (exit 1) unless the final dataset digest equals this "
        "(the CI smoke check pins the scenario-matrix digest here)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="per-request timeout in seconds (default: 600)",
    )
    return parser


def _request(url: str, *, data: Optional[bytes] = None, timeout: float = 600.0):
    request = urllib.request.Request(
        url,
        data=data,
        method="POST" if data is not None else "GET",
        headers={"Content-Type": "application/json"} if data is not None else {},
    )
    return urllib.request.urlopen(request, timeout=timeout)


def submit_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro submit``."""
    args = build_submit_parser().parse_args(argv)
    base = args.url.rstrip("/")
    payload = {
        "scenario": args.scenario,
        "priority": args.priority,
        "use_cache": not args.no_cache,
        "coalesce": not args.no_coalesce,
    }
    if args.scale is not None:
        payload["scale"] = args.scale
    try:
        with _request(
            f"{base}/jobs",
            data=json.dumps(payload).encode("utf-8"),
            timeout=args.timeout,
        ) as response:
            submitted = json.loads(response.read())
    except urllib.error.HTTPError as error:
        detail = error.read().decode("utf-8", "replace").strip()
        print(f"[repro-submit] rejected ({error.code}): {detail}", file=sys.stderr)
        return 1
    except urllib.error.URLError as error:
        print(
            f"[repro-submit] cannot reach {base}: {error.reason} "
            "(is 'python -m repro serve' running?)",
            file=sys.stderr,
        )
        return 1
    job_id = submitted["job_id"]
    attached = " (coalesced onto in-flight job)" if submitted.get("coalesced") else ""
    print(
        f"[repro-submit] {args.scenario} -> {job_id} "
        f"[{submitted['state']}]{attached}",
        flush=True,
    )

    final = None
    if not args.no_stream:
        with _request(f"{base}/jobs/{job_id}/stream", timeout=args.timeout) as stream:
            for line in stream:
                event = json.loads(line)
                if event.get("event") == "shard":
                    total = submitted.get("shards_total") or "?"
                    print(
                        f"[repro-submit]   shard {event['index'] + 1}/{total}: "
                        f"trial={event['trial']} process={event['process']} "
                        f"{event['n_samples']} samples "
                        f"digest={event['digest'][:16]}",
                        flush=True,
                    )
                elif event.get("event") == "done":
                    final = event
    if final is None:
        with _request(f"{base}/jobs/{job_id}/result", timeout=args.timeout) as response:
            final = json.loads(response.read())

    state = final.get("state")
    digest = final.get("digest")
    rate = final.get("samples_per_second") or 0.0
    print(
        f"[repro-submit] {job_id} finished: state={state} "
        f"samples={final.get('samples_done')} ({rate:,.0f} samples/s) "
        f"from_cache={final.get('from_cache')}",
        flush=True,
    )
    if state != "done":
        print(
            f"[repro-submit] job did not complete: {final.get('error', state)}",
            file=sys.stderr,
        )
        return 1
    print(f"[repro-submit] dataset digest: {digest}", flush=True)
    if args.expect_digest is not None and digest != args.expect_digest:
        print(
            f"[repro-submit] DIGEST MISMATCH: expected {args.expect_digest}, "
            f"got {digest}",
            file=sys.stderr,
        )
        return 1
    if args.expect_digest is not None:
        print("[repro-submit] digest matches the pinned value", flush=True)
    return 0


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "build_serve_parser",
    "build_submit_parser",
    "serve_main",
    "submit_main",
]
