"""Subprocess worker of ``bench_out_of_core.py`` (not a benchmark itself).

Runs one campaign either fully in memory or through the spillable
:class:`~repro.io.shard_store.ShardStore`, streams every shard through a
sha256, and prints one JSON line with the process's *own* peak RSS
(``ru_maxrss``) — the whole point of the subprocess: the parent's high-water
mark is cumulative across scales, a child's is exactly one measurement.

The digest is computed the same way in both modes (each (trial, process)
slice's compute-time buffer in campaign order, hashed in place), so equal
digests mean the spilled campaign is bit-identical to the in-memory one.  With
``--analyses`` the child then folds every registered analysis pass over
the finished campaign (``CampaignResult.analyze``), so the peak RSS covers
the analyses as well; ``elapsed_s`` still times the campaign alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession


def measure(args: argparse.Namespace) -> dict:
    with tempfile.TemporaryDirectory(dir=args.workdir or None) as tmp:
        config = CampaignConfig(
            application=args.application,
            trials=args.trials,
            processes=args.processes,
            iterations=args.iterations,
            threads=args.threads,
            seed=args.seed,
            backend=args.backend,
            max_workers=args.max_workers,
        )
        session = CampaignSession(config, cache_dir=Path(tmp) / "cache")
        start = time.perf_counter()
        if args.mode == "ooc":
            result = session.run(
                args.application,
                use_cache=False,
                store=True,
                spill_threshold_bytes=args.spill_mb * 2**20,
            )
        else:
            result = session.run(args.application, use_cache=False)
        digest = hashlib.sha256()
        samples = 0
        for block in result.iter_column_blocks():
            for times in block.cube:  # one (trial, process) slice at a time
                digest.update(np.ascontiguousarray(times, dtype=np.float64))
                samples += times.size
        elapsed = time.perf_counter() - start
        analyses = []
        if args.analyses:
            analyses = sorted(result.analyze("all"))
    return {
        "mode": args.mode,
        "trials": args.trials,
        "workers": args.max_workers,
        "samples": samples,
        "elapsed_s": elapsed,
        "samples_per_second": samples / elapsed,
        # Linux reports ru_maxrss in kilobytes; chunk-parallel runs fold in
        # forked pool workers, so take the max over the (by now reaped)
        # children as well — the budget bounds every process, not just the
        # parent
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024,
        "digest": digest.hexdigest(),
        "analyses": analyses,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("memory", "ooc"), required=True)
    parser.add_argument("--application", default="minife")
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--processes", type=int, default=2)
    parser.add_argument("--iterations", type=int, default=130)
    parser.add_argument("--threads", type=int, default=48)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--backend", default="campaign")
    parser.add_argument("--max-workers", type=int, default=1)
    parser.add_argument("--spill-mb", type=int, default=8)
    parser.add_argument("--workdir", default=None)
    parser.add_argument(
        "--analyses",
        action="store_true",
        help="fold every registered analysis pass after the campaign",
    )
    json.dump(measure(parser.parse_args(argv)), sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
