"""Region instrumentation — the Listing-1 analogue.

Two instrumenters are provided:

* :class:`RegionInstrumenter` — collects per-thread enter/exit timestamps from
  the *simulated* OpenMP runtime (:class:`repro.openmp.runtime.OpenMPRuntime`
  executions) and accumulates them into a :class:`~repro.core.timing.TimingDataset`.
  This is the path the proxy-application campaign uses.
* :class:`PythonThreadRegion` — applies the same methodology to a real Python
  thread pool using ``time.monotonic_ns()``.  It exists so the quickstart can
  demonstrate the measurement procedure end-to-end on real threads; because of
  the GIL and the coarse scheduling granularity of CPython the absolute values
  are *not* comparable to native OpenMP measurements (this is exactly the
  limitation that motivates the simulated substrate — see DESIGN.md).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.timing import TimingDataset, TimingRecord
from repro.openmp.forloop import LoopExecution


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
        #: already-columnar blocks appended by :meth:`record_campaign` /
        #: :meth:`record_columns`, kept as arrays so tensor recording never
        #: round-trips through Python lists
        self._blocks: List[Dict[str, np.ndarray]] = []

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

    def record_execution(
        self, trial: int, process: int, execution: LoopExecution
    ) -> None:
        """Record every thread of one simulated region execution."""
        for thread in execution.threads:
            self.record_thread(
                trial=trial,
                process=process,
                iteration=execution.iteration,
                thread=thread.thread_id,
                start_ns=thread.start_ns,
                end_ns=thread.end_ns,
            )

    def record_compute_times(
        self,
        *,
        trial: int,
        process: int,
        iteration: int,
        compute_times_s: Sequence[float],
    ) -> None:
        """Record derived compute times directly (vectorised campaign path)."""
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

    def record_campaign(
        self,
        *,
        shards: Sequence[Tuple[int, int]],
        compute_times_s: np.ndarray,
        first_iteration: int = 0,
    ) -> None:
        """Record a whole ``(n_shards, n_iterations, n_threads)`` tensor as
        one columnar block.

        The whole-campaign backend produces many (trial, process) shards in
        one chunk; this assembles all their columns at once — trial/process
        ids via ``np.repeat`` over the shard axis, iteration/thread ids via
        one ``repeat``/``tile`` shared by every shard — so a chunk costs one
        block regardless of how many shards it spans.  Row order equals
        consecutive per-iteration :meth:`record_compute_times` calls per
        shard, so datasets merge bit-identically with per-shard recording.
        """
        times = np.asarray(compute_times_s, dtype=np.float64)
        if times.ndim != 3:
            raise ValueError(
                "compute_times_s must be 3-D (shards x iterations x threads), "
                f"got shape {times.shape}"
            )
        if len(shards) != times.shape[0]:
            raise ValueError(
                f"got {len(shards)} shard ids for {times.shape[0]} planes"
            )
        if np.any(times < 0):
            raise ValueError("compute times must be non-negative")
        n_shards, n_iterations, n_threads = times.shape
        per_shard = n_iterations * n_threads
        flat = times.reshape(-1).copy()
        trials = np.asarray([trial for trial, _ in shards], dtype=np.int32)
        processes = np.asarray([process for _, process in shards], dtype=np.int32)
        self._flush_rows()
        self._blocks.append(
            {
                "trial": np.repeat(trials, per_shard),
                "process": np.repeat(processes, per_shard),
                "iteration": np.tile(
                    np.repeat(
                        np.arange(first_iteration, first_iteration + n_iterations),
                        n_threads,
                    ),
                    n_shards,
                ),
                "thread": np.tile(np.arange(n_threads), n_shards * n_iterations),
                "start_ns": np.zeros(times.size, dtype=np.int64),
                "end_ns": (flat * 1e9).astype(np.int64),
                "compute_time_s": flat,
            }
        )

    def record_columns(self, columns: Dict[str, np.ndarray]) -> None:
        """Append one pre-assembled columnar block.

        The parallel campaign path assembles a chunk's columns inside a
        worker process (via :meth:`record_campaign` there) and ships them
        back as arrays; this appends such a block without re-deriving any
        ids.  The block must carry exactly the canonical column set, with
        equal lengths.
        """
        if set(columns) != set(self._rows):
            raise ValueError(
                f"columns must be exactly {sorted(self._rows)}, "
                f"got {sorted(columns)}"
            )
        arrays = {name: np.asarray(columns[name]) for name in self._rows}
        lengths = {len(values) for values in arrays.values()}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        self._flush_rows()
        self._blocks.append(arrays)

    def _flush_rows(self) -> None:
        """Convert any pending per-row appends into a columnar block, so
        mixed ``record_*`` call sequences keep their chronological order."""
        if not self._rows["compute_time_s"]:
            return
        self._blocks.append(
            {name: np.asarray(values) for name, values in self._rows.items()}
        )
        for values in self._rows.values():
            values.clear()

    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        return len(self._rows["compute_time_s"]) + sum(
            len(block["compute_time_s"]) for block in self._blocks
        )

    def dataset(self) -> TimingDataset:
        """Materialise the accumulated records as a :class:`TimingDataset`."""
        if self.n_records == 0:
            raise ValueError("no records collected yet")
        self._flush_rows()
        if len(self._blocks) == 1:
            columns = dict(self._blocks[0])
        else:
            columns = {
                name: np.concatenate([block[name] for block in self._blocks])
                for name in self._blocks[0]
            }
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
        self._blocks.clear()


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
