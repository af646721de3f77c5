"""Region instrumentation — the Listing-1 analogue.

Two instrumenters are provided:

* :class:`RegionInstrumenter` — accumulates per-thread enter/exit timestamps
  (raw monotonic readings) or derived compute times into a
  :class:`~repro.core.timing.TimingDataset`.  The discrete-event reference
  sampler in the test tree records its simulated clocks through it.
* :class:`PythonThreadRegion` — applies the same methodology to a real Python
  thread pool using ``time.monotonic_ns()``.  It exists so the quickstart can
  demonstrate the measurement procedure end-to-end on real threads; because of
  the GIL and the coarse scheduling granularity of CPython the absolute values
  are *not* comparable to native OpenMP measurements (this is exactly the
  limitation that motivates the simulated substrate).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.timing import TimingDataset


class RegionInstrumenter:
    """Accumulates per-thread region timings into a dataset.

    Parameters
    ----------
    region:
        Name of the instrumented compute region (e.g. ``"matvec"``).
    application:
        Application label stored in the dataset metadata.
    metadata:
        Extra metadata merged into the dataset.
    """

    def __init__(
        self,
        region: str = "compute",
        application: str = "unknown",
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.region = region
        self.application = application
        self.extra_metadata = dict(metadata or {})
        self._rows: Dict[str, List] = {
            "trial": [],
            "process": [],
            "iteration": [],
            "thread": [],
            "start_ns": [],
            "end_ns": [],
            "compute_time_s": [],
        }

    # ------------------------------------------------------------------
    def record_thread(
        self,
        *,
        trial: int,
        process: int,
        iteration: int,
        thread: int,
        start_ns: int,
        end_ns: int,
    ) -> None:
        """Record one thread's enter/exit timestamps (raw monotonic readings)."""
        if end_ns < start_ns:
            raise ValueError("end_ns must be >= start_ns")
        self._rows["trial"].append(trial)
        self._rows["process"].append(process)
        self._rows["iteration"].append(iteration)
        self._rows["thread"].append(thread)
        self._rows["start_ns"].append(start_ns)
        self._rows["end_ns"].append(end_ns)
        self._rows["compute_time_s"].append((end_ns - start_ns) * 1.0e-9)

    def record_compute_times(
        self,
        *,
        trial: int,
        process: int,
        iteration: int,
        compute_times_s: Sequence[float],
    ) -> None:
        """Record derived compute times directly (one iteration of
        :class:`PythonThreadRegion`)."""
        times = np.asarray(compute_times_s, dtype=np.float64)
        if np.any(times < 0):
            raise ValueError("compute times must be non-negative")
        n = len(times)
        self._rows["trial"].extend([trial] * n)
        self._rows["process"].extend([process] * n)
        self._rows["iteration"].extend([iteration] * n)
        self._rows["thread"].extend(range(n))
        self._rows["start_ns"].extend([0] * n)
        self._rows["end_ns"].extend((times * 1e9).astype(np.int64).tolist())
        self._rows["compute_time_s"].extend(times.tolist())

    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        return len(self._rows["compute_time_s"])

    def dataset(self) -> TimingDataset:
        """Materialise the accumulated records as a :class:`TimingDataset`."""
        if self.n_records == 0:
            raise ValueError("no records collected yet")
        columns = {name: np.asarray(values) for name, values in self._rows.items()}
        metadata = {
            "application": self.application,
            "region": self.region,
            **self.extra_metadata,
        }
        return TimingDataset(columns, metadata)

    def reset(self) -> None:
        """Discard all collected records."""
        for values in self._rows.values():
            values.clear()


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
        instrumenter = RegionInstrumenter(region=region, application=application)
        for iteration in range(n_iterations):
            times = self.run_iteration()
            instrumenter.record_compute_times(
                trial=0, process=0, iteration=iteration, compute_times_s=times
            )
        return instrumenter.dataset().with_metadata(
            backend="python-threads",
            caveat="GIL-bound measurement; relative shapes only",
        )
