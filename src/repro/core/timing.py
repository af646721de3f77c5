"""Timing records and the columnar timing dataset.

One :class:`TimingRecord` corresponds to one row of the paper's measurement:
*thread ``t`` of process ``p`` spent ``compute_time`` nanoseconds inside the
instrumented compute region of iteration ``i`` of trial ``r``*.  A full paper
campaign has 10 trials × 8 processes × 200 iterations × 48 threads = 768 000
records per application, so the dataset stores them as parallel NumPy columns
rather than as objects.

The *compute time* column is the derived measurement of §3.1: raw
``CLOCK_MONOTONIC`` readings are kept (``start_ns`` / ``end_ns``) but are only
comparable within one thread; all analysis uses ``compute_time_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Column names of the dataset, in storage order.
COLUMNS: Tuple[str, ...] = (
    "trial",
    "process",
    "iteration",
    "thread",
    "start_ns",
    "end_ns",
    "compute_time_s",
)


@dataclass(frozen=True)
class TimingRecord:
    """One per-thread, per-iteration measurement."""

    trial: int
    process: int
    iteration: int
    thread: int
    start_ns: int
    end_ns: int

    def __post_init__(self) -> None:
        if self.end_ns < self.start_ns:
            raise ValueError(
                "end_ns must be >= start_ns (monotonic clock on a single core)"
            )

    @property
    def compute_time_s(self) -> float:
        """Derived compute time in seconds (the paper's arrival estimate)."""
        return (self.end_ns - self.start_ns) * 1.0e-9

    @property
    def compute_time_ms(self) -> float:
        return self.compute_time_s * 1.0e3


class CubeColumns(Mapping):
    """The flat columns of a :class:`~repro.core.aggregation.ColumnBlock`,
    derived on access.

    The block's cube holds one ``(n_iterations, n_threads)`` matrix per
    (trial, process) slice, every slice listing the same iteration and
    thread ids, so the id columns are built from the shape when read (and
    not cached); ``compute_time_s`` is a flat view of the cube.
    """

    __slots__ = ("block",)

    def __init__(self, block) -> None:
        self.block = block

    def __iter__(self) -> Iterator[str]:
        return iter(("trial", "process", "iteration", "thread", "compute_time_s"))

    def __len__(self) -> int:
        return 5

    def __getitem__(self, name: str) -> np.ndarray:
        block = self.block
        n_slices, n_iterations, n_threads = block.cube.shape
        if name == "compute_time_s":
            return block.cube.reshape(-1)
        if name in ("trial", "process"):
            ids = np.array([getattr(sl, name) for sl in block.slices], dtype=np.int32)
            return np.repeat(ids, n_iterations * n_threads)
        if name == "iteration":
            labels = np.repeat(block.iterations.astype(np.int32), n_threads)
            return np.tile(labels, n_slices)
        if name == "thread":
            return np.tile(block.threads.astype(np.int32), n_slices * n_iterations)
        raise KeyError(name)


@dataclass(frozen=True)
class TimingShard:
    """One campaign shard: the timing columns of a (trial, process) slice.

    Each shard holds the columns of one process of one trial and knows where
    it belongs, so a set of shards can be merged back into a
    :class:`TimingDataset` in the deterministic serial order regardless of the
    order in which workers produced them.  A shard viewed out of a :class:`~repro.core.aggregation.ColumnBlock`
    holds :class:`CubeColumns`, which derive the ids on access.
    """

    trial: int
    process: int
    columns: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        if isinstance(self.columns, CubeColumns):
            return  # consistent by construction
        required = {"trial", "process", "iteration", "thread", "compute_time_s"}
        missing = required - set(self.columns)
        if missing:
            raise ValueError(f"shard is missing required columns: {sorted(missing)}")
        lengths = {name: len(arr) for name, arr in self.columns.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"shard columns have unequal lengths: {lengths}")

    @property
    def n_samples(self) -> int:
        return len(self.columns["compute_time_s"])

    @property
    def sort_key(self) -> Tuple[int, int]:
        """Position of this shard in the serial (trial-major) row order."""
        return (self.trial, self.process)

    @classmethod
    def from_dataset(
        cls, dataset: "TimingDataset", *, trial: int, process: int
    ) -> "TimingShard":
        """Wrap an already-built dataset slice as a shard."""
        columns = {name: dataset.column(name) for name in dataset.columns}
        return cls(trial=trial, process=process, columns=columns)

    def to_dataset(
        self, metadata: Optional[Dict[str, object]] = None
    ) -> "TimingDataset":
        """Materialise this shard alone as a :class:`TimingDataset`."""
        return TimingDataset(dict(self.columns), metadata)


class TimingDataset:
    """Columnar collection of :class:`TimingRecord` rows plus metadata.

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
    def from_records(
        cls,
        records: Iterable[TimingRecord],
        metadata: Optional[Dict[str, object]] = None,
    ) -> "TimingDataset":
        """Build a dataset from an iterable of :class:`TimingRecord`."""
        rows = list(records)
        if not rows:
            raise ValueError("cannot build a dataset from zero records")
        columns = {
            "trial": np.array([r.trial for r in rows]),
            "process": np.array([r.process for r in rows]),
            "iteration": np.array([r.iteration for r in rows]),
            "thread": np.array([r.thread for r in rows]),
            "start_ns": np.array([r.start_ns for r in rows], dtype=np.int64),
            "end_ns": np.array([r.end_ns for r in rows], dtype=np.int64),
            "compute_time_s": np.array([r.compute_time_s for r in rows]),
        }
        return cls(columns, metadata)

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
        shards: Iterable[TimingShard],
        metadata: Optional[Dict[str, object]] = None,
    ) -> "TimingDataset":
        """Merge campaign shards into one dataset, in serial row order.

        Shards are ordered by ``(trial, process)`` before concatenation, so
        the merged dataset is bit-identical to the one a serial trial-major /
        process-minor campaign loop would have produced — whichever order the
        parallel executor completed the shards in.
        """
        parts = sorted(shards, key=lambda shard: shard.sort_key)
        if not parts:
            raise ValueError("cannot merge zero shards")
        names = set(parts[0].columns)
        for shard in parts[1:]:
            if set(shard.columns) != names:
                raise ValueError(
                    "shards have mismatching columns: "
                    f"{sorted(names)} vs {sorted(shard.columns)}"
                )
        columns = {
            name: np.concatenate([np.asarray(shard.columns[name]) for shard in parts])
            for name in parts[0].columns
        }
        return cls(columns, metadata)

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
    def iter_records(self) -> Iterator[TimingRecord]:
        """Yield rows as :class:`TimingRecord` objects (slow path; for tests)."""
        has_raw = "start_ns" in self._data and "end_ns" in self._data
        for idx in range(len(self)):
            if has_raw:
                start = int(self._data["start_ns"][idx])
                end = int(self._data["end_ns"][idx])
            else:
                start = 0
                end = int(round(self._data["compute_time_s"][idx] * 1e9))
            yield TimingRecord(
                trial=int(self._data["trial"][idx]),
                process=int(self._data["process"][idx]),
                iteration=int(self._data["iteration"][idx]),
                thread=int(self._data["thread"][idx]),
                start_ns=start,
                end_ns=end,
            )

    def concat(self, other: "TimingDataset") -> "TimingDataset":
        """Concatenate two datasets (metadata of ``self`` wins on conflicts)."""
        common = set(self._data) & set(other._data)
        columns = {
            name: np.concatenate([self._data[name], other._data[name]])
            for name in sorted(common)
        }
        metadata = {**other.metadata, **self.metadata}
        return TimingDataset(columns, metadata)

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
