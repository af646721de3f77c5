"""Region instrumentation on real threads — the Listing-1 analogue.

:class:`PythonThreadRegion` applies the paper's measurement procedure to a
real Python thread pool using ``time.monotonic_ns()`` and returns the
derived per-thread compute times as a
:class:`~repro.core.timing.TimingDataset`.  It exists so the quickstart can
demonstrate the procedure end to end on real threads; because of the GIL
and the coarse scheduling granularity of CPython the absolute values are
*not* comparable to native OpenMP measurements (this is exactly the
limitation that motivates the simulated substrate).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.core.timing import TimingDataset


@dataclass
class _ThreadTimestamps:
    start_ns: int = 0
    end_ns: int = 0


class PythonThreadRegion:
    """Measure a real Python thread pool with the paper's procedure.

    The procedure mirrors Listing 1: every worker synchronises on a barrier,
    reads ``time.monotonic_ns()``, executes its share of the loop iterations,
    reads the clock again, and joins a final barrier.  The derived compute
    times are collected per iteration.

    Parameters
    ----------
    n_threads:
        Size of the thread pool.
    work_fn:
        Callable ``work_fn(item_index)`` executed for every loop item.
    n_items:
        Loop trip count; items are block-distributed (static schedule).
    """

    def __init__(self, n_threads: int, work_fn: Callable[[int], None], n_items: int):
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if n_items < 0:
            raise ValueError("n_items must be non-negative")
        self.n_threads = n_threads
        self.work_fn = work_fn
        self.n_items = n_items

    # ------------------------------------------------------------------
    def _assignment(self) -> List[range]:
        base = self.n_items // self.n_threads
        remainder = self.n_items % self.n_threads
        blocks = []
        start = 0
        for t in range(self.n_threads):
            size = base + (1 if t < remainder else 0)
            blocks.append(range(start, start + size))
            start += size
        return blocks

    def run_iteration(self) -> np.ndarray:
        """Execute one instrumented iteration; returns per-thread compute times (s)."""
        blocks = self._assignment()
        start_barrier = threading.Barrier(self.n_threads)
        timestamps = [_ThreadTimestamps() for _ in range(self.n_threads)]

        def worker(thread_id: int) -> None:
            start_barrier.wait()
            timestamps[thread_id].start_ns = time.monotonic_ns()
            for item in blocks[thread_id]:
                self.work_fn(item)
            timestamps[thread_id].end_ns = time.monotonic_ns()

        threads = [
            threading.Thread(target=worker, args=(t,), name=f"region-worker-{t}")
            for t in range(self.n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return np.array(
            [(ts.end_ns - ts.start_ns) * 1.0e-9 for ts in timestamps]
        )

    def run(
        self,
        n_iterations: int,
        *,
        application: str = "python-threads",
        region: str = "loop",
    ) -> TimingDataset:
        """Run ``n_iterations`` instrumented iterations and return the dataset."""
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        times = np.stack([self.run_iteration() for _ in range(n_iterations)])
        return TimingDataset.from_compute_times(
            times[np.newaxis, np.newaxis],
            {
                "application": application,
                "region": region,
                "backend": "python-threads",
                "caveat": "GIL-bound measurement; relative shapes only",
            },
        )
