"""The columnar timing dataset.

One row of a :class:`TimingDataset` is one sample of the paper's
measurement: *thread ``t`` of process ``p`` spent ``compute_time`` seconds
inside the instrumented compute region of iteration ``i`` of trial ``r``*.
A full paper campaign has 10 trials × 8 processes × 200 iterations × 48
threads = 768 000 samples per application, so the dataset stores them as
parallel NumPy columns rather than as objects.

The *compute time* column is the derived measurement of §3.1: raw
``CLOCK_MONOTONIC`` readings (the optional ``start_ns`` / ``end_ns``
columns) are only comparable within one thread; all analysis uses
``compute_time_s``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.core.aggregation import ColumnBlock


class TimingDataset:
    """Columnar collection of per-thread timing samples plus metadata.

    Parameters
    ----------
    columns:
        Mapping of column name → 1-D array.  Required columns: ``trial``,
        ``process``, ``iteration``, ``thread``, ``compute_time_s``; the raw
        ``start_ns`` / ``end_ns`` columns are optional (synthetic generators
        may produce compute times directly).
    metadata:
        Free-form campaign description (application, machine, configuration,
        seed, ...); carried through saves/loads and into reports.

    Inputs are not copied: a column that already has its dtype (int32 ids,
    int64 clock readings, float64 compute times) is held as given, so the
    caller must not mutate it afterwards.  Campaign producers hand their
    samples over as ``(n_slices, n_iterations, n_threads)`` cubes
    (:class:`~repro.core.aggregation.ColumnBlock`); a dataset is their
    flat, merged form, built on demand.
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        required = {"trial", "process", "iteration", "thread", "compute_time_s"}
        missing = required - set(columns)
        if missing:
            raise ValueError(f"missing required columns: {sorted(missing)}")
        length = len(columns["compute_time_s"])
        data: Dict[str, np.ndarray] = {}
        for name, values in columns.items():
            arr = np.asarray(values)
            if arr.ndim != 1 or len(arr) != length:
                raise ValueError(
                    f"column {name!r} must be 1-D of length {length}, got shape {arr.shape}"
                )
            if name in ("trial", "process", "iteration", "thread"):
                data[name] = arr.astype(np.int32, copy=False)
            elif name in ("start_ns", "end_ns"):
                data[name] = arr.astype(np.int64, copy=False)
            else:
                data[name] = arr.astype(np.float64, copy=False)
        if np.any(data["compute_time_s"] < 0):
            raise ValueError("compute times must be non-negative")
        self._data = data
        self.metadata: Dict[str, object] = dict(metadata or {})

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_compute_times(
        cls,
        compute_times_s: np.ndarray,
        metadata: Optional[Dict[str, object]] = None,
    ) -> "TimingDataset":
        """Build a dataset from a dense 4-D array of compute times.

        ``compute_times_s`` must have shape
        ``(n_trials, n_processes, n_iterations, n_threads)``.
        """
        from repro.core.aggregation import campaign_block

        arr = np.asarray(compute_times_s, dtype=np.float64)
        if arr.ndim != 4:
            raise ValueError(
                "compute_times_s must be 4-D (trials, processes, iterations, threads)"
            )
        n_trials, n_processes, n_iterations, n_threads = arr.shape
        shards = [(t, p) for t in range(n_trials) for p in range(n_processes)]
        cube = arr.reshape(-1, n_iterations, n_threads)
        return cls(campaign_block(shards, cube).columns, metadata)

    @classmethod
    def merge(
        cls,
        blocks: Iterable["ColumnBlock"],
        metadata: Optional[Dict[str, object]] = None,
    ) -> "TimingDataset":
        """Merge column blocks into one dataset, in serial row order.

        The blocks' slices are ordered by ``(trial, process)`` before
        concatenation, so the merged dataset is bit-identical to the one a
        serial trial-major / process-minor campaign loop would have
        produced — whichever order the parallel executor completed them
        in.  The blocks must share their iteration and thread ids.
        """
        from repro.core.aggregation import ColumnBlock

        parts = sorted(
            ((sl.sort_key, block, sl) for block in blocks for sl in block.slices),
            key=lambda part: part[0],
        )
        if not parts:
            raise ValueError("cannot merge zero blocks")
        first = parts[0][1]
        for _, block, _ in parts:
            if not (
                np.array_equal(block.iterations, first.iterations)
                and np.array_equal(block.threads, first.threads)
            ):
                raise ValueError("merged blocks need the same iteration and thread ids")
        cube = np.concatenate([block.rows(sl).cube for _, block, sl in parts])
        size = cube.shape[1] * cube.shape[2]
        slices = tuple(
            sl._replace(start=k * size, stop=(k + 1) * size)
            for k, (_, _, sl) in enumerate(parts)
        )
        merged = ColumnBlock(cube, slices, first.iterations, first.threads)
        return cls(merged.columns, metadata)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data["compute_time_s"])

    @property
    def n_samples(self) -> int:
        return len(self)

    def column(self, name: str) -> np.ndarray:
        """Raw column array (a view; do not mutate)."""
        return self._data[name]

    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(self._data.keys())

    @property
    def compute_times_s(self) -> np.ndarray:
        return self._data["compute_time_s"]

    @property
    def compute_times_ms(self) -> np.ndarray:
        return self._data["compute_time_s"] * 1.0e3

    @property
    def trials(self) -> np.ndarray:
        return np.unique(self._data["trial"])

    @property
    def processes(self) -> np.ndarray:
        return np.unique(self._data["process"])

    @property
    def iterations(self) -> np.ndarray:
        return np.unique(self._data["iteration"])

    @property
    def threads(self) -> np.ndarray:
        return np.unique(self._data["thread"])

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def n_processes(self) -> int:
        return len(self.processes)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    @property
    def application(self) -> str:
        """Application label from metadata (``'unknown'`` if absent)."""
        return str(self.metadata.get("application", "unknown"))

    # ------------------------------------------------------------------
    # selection and reshaping
    # ------------------------------------------------------------------
    def select(
        self,
        *,
        trial: Optional[int] = None,
        process: Optional[int] = None,
        iteration: Optional[int] = None,
        thread: Optional[int] = None,
    ) -> "TimingDataset":
        """Subset of rows matching all given keys."""
        mask = np.ones(len(self), dtype=bool)
        for name, value in (
            ("trial", trial),
            ("process", process),
            ("iteration", iteration),
            ("thread", thread),
        ):
            if value is not None:
                mask &= self._data[name] == value
        if not mask.any():
            raise KeyError(
                f"no rows match trial={trial} process={process} "
                f"iteration={iteration} thread={thread}"
            )
        columns = {name: arr[mask] for name, arr in self._data.items()}
        return TimingDataset(columns, self.metadata)

    def select_iterations(self, iteration_slice: slice) -> "TimingDataset":
        """Subset of rows whose iteration index falls inside ``iteration_slice``."""
        iterations = self.iterations[iteration_slice]
        mask = np.isin(self._data["iteration"], iterations)
        columns = {name: arr[mask] for name, arr in self._data.items()}
        return TimingDataset(columns, self.metadata)

    def is_dense(self) -> bool:
        """Whether every (trial, process, iteration, thread) combination exists once."""
        expected = self.n_trials * self.n_processes * self.n_iterations * self.n_threads
        return len(self) == expected

    def to_dense(self) -> np.ndarray:
        """Dense 4-D array (trials, processes, iterations, threads) of compute times.

        Requires a dense dataset (one record per combination).
        """
        if not self.is_dense():
            raise ValueError("dataset is not dense; cannot reshape to a 4-D array")
        shape = (self.n_trials, self.n_processes, self.n_iterations, self.n_threads)
        dense = np.empty(shape, dtype=np.float64)
        trial_idx = np.searchsorted(self.trials, self._data["trial"])
        process_idx = np.searchsorted(self.processes, self._data["process"])
        iteration_idx = np.searchsorted(self.iterations, self._data["iteration"])
        thread_idx = np.searchsorted(self.threads, self._data["thread"])
        dense[trial_idx, process_idx, iteration_idx, thread_idx] = self._data[
            "compute_time_s"
        ]
        return dense

    # ------------------------------------------------------------------
    # iteration & combination
    # ------------------------------------------------------------------
    def with_metadata(self, **updates: object) -> "TimingDataset":
        """Copy of the dataset with extra metadata entries.

        An update value of ``None`` removes the entry instead.
        """
        metadata = {**self.metadata, **updates}
        metadata = {k: v for k, v in metadata.items() if v is not None}
        return TimingDataset(dict(self._data), metadata)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Headline numbers used by ``__repr__`` and reports."""
        times_ms = self.compute_times_ms
        return {
            "application": self.application,
            "samples": len(self),
            "trials": self.n_trials,
            "processes": self.n_processes,
            "iterations": self.n_iterations,
            "threads": self.n_threads,
            "median_ms": float(np.median(times_ms)),
            "mean_ms": float(np.mean(times_ms)),
            "min_ms": float(np.min(times_ms)),
            "max_ms": float(np.max(times_ms)),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self.summary()
        return (
            f"TimingDataset({info['application']!r}, samples={info['samples']}, "
            f"trials={info['trials']}, processes={info['processes']}, "
            f"iterations={info['iterations']}, threads={info['threads']}, "
            f"median={info['median_ms']:.2f}ms)"
        )
