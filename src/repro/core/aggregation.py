"""The three aggregation levels of §4.1.

The paper tests normality of thread arrival times when aggregated at:

1. **Application level** — all samples of all trials, processes and
   iterations pooled into one group (768 000 samples at paper scale).
2. **Application-iteration level** — one group per application iteration,
   pooling trials, processes and threads (3840 samples per group).
3. **Process-iteration level** — one group per (trial, process, iteration),
   i.e. one thread team's arrival vector (48 samples per group).  This is the
   granularity of Table 1.

:func:`aggregate` turns a :class:`~repro.core.timing.TimingDataset` into a
:class:`GroupedSamples` matrix for any of the three levels — the dense
reference grouping.  The analysis passes of :mod:`repro.analysis` never
materialise it: they fold :class:`ColumnBlock` s, whose
``(n_slices, n_iterations, n_threads)`` cube holds the process-iteration
groups of one (trial, process) per slice; the coarser levels are the
cube's rows pooled in slice order.  A block's
:attr:`~ColumnBlock.sorted_cube` sorts every group once, on first use, for
all the passes that read order statistics.
Campaign producers emit blocks directly (:func:`campaign_block`: the
sampled tensor *is* the cube); :func:`canonical_block` sorts flat column
input (a dataset's rows) into the same form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.timing import TimingDataset


class AggregationLevel(enum.Enum):
    """The paper's three groupings of thread arrival samples."""

    APPLICATION = "application"
    APPLICATION_ITERATION = "application_iteration"
    PROCESS_ITERATION = "process_iteration"

    @classmethod
    def from_name(cls, name: str) -> "AggregationLevel":
        """Parse a level from a string (accepts the enum value or name)."""
        text = name.strip().lower()
        for level in cls:
            if text in (level.value, level.name.lower()):
                return level
        raise ValueError(f"unknown aggregation level {name!r}")


@dataclass
class GroupedSamples:
    """Samples arranged as equal-size groups.

    Attributes
    ----------
    level:
        The aggregation level that produced the groups.
    keys:
        One identifying tuple per group — ``()`` for the application level,
        ``(iteration,)`` for application-iteration groups and
        ``(trial, process, iteration)`` for process-iteration groups.
    values:
        Matrix of shape ``(n_groups, group_size)`` of compute times in
        **seconds**.
    """

    level: AggregationLevel
    keys: List[Tuple[int, ...]]
    values: np.ndarray
    #: lazily built key → row-index mapping (see :meth:`key_index`)
    _index: Optional[Dict[Tuple[int, ...], int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D (n_groups, group_size) matrix")
        if len(self.keys) != self.values.shape[0]:
            raise ValueError("keys length must equal the number of groups")

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return self.values.shape[0]

    @property
    def group_size(self) -> int:
        return self.values.shape[1]

    def group(self, key: Tuple[int, ...]) -> np.ndarray:
        """Samples of the group identified by ``key`` (O(1) after the first
        lookup builds the key index)."""
        try:
            idx = self.key_index()[tuple(key)]
        except KeyError as exc:
            raise KeyError(f"no group with key {key}") from exc
        return self.values[idx]

    def key_index(self) -> Dict[Tuple[int, ...], int]:
        """Mapping key → row index (built lazily once, then cached)."""
        if self._index is None:
            self._index = {key: idx for idx, key in enumerate(self.keys)}
        return self._index


def aggregate(
    dataset: TimingDataset, level: AggregationLevel | str
) -> GroupedSamples:
    """Group a dataset's compute times at one of the paper's three levels.

    The dataset must be *dense* (every trial/process/iteration/thread
    combination present exactly once), which every campaign produced by this
    package is; sparse data would make the fixed-width group matrix ambiguous.
    """
    if isinstance(level, str):
        level = AggregationLevel.from_name(level)
    if not dataset.is_dense():
        raise ValueError("aggregation requires a dense dataset")
    dense = dataset.to_dense()  # (trials, processes, iterations, threads)
    n_trials, n_processes, n_iterations, n_threads = dense.shape
    trials = dataset.trials
    processes = dataset.processes
    iterations = dataset.iterations

    if level is AggregationLevel.APPLICATION:
        values = dense.reshape(1, -1)
        keys: List[Tuple[int, ...]] = [()]
    elif level is AggregationLevel.APPLICATION_ITERATION:
        # (iterations, trials * processes * threads)
        values = dense.transpose(2, 0, 1, 3).reshape(n_iterations, -1)
        keys = [(int(it),) for it in iterations]
    elif level is AggregationLevel.PROCESS_ITERATION:
        values = dense.reshape(n_trials * n_processes * n_iterations, n_threads)
        keys = [
            (int(trials[t]), int(processes[p]), int(iterations[i]))
            for t in range(n_trials)
            for p in range(n_processes)
            for i in range(n_iterations)
        ]
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unsupported level {level}")
    return GroupedSamples(level=level, keys=keys, values=values)


class ShardSlice(NamedTuple):
    """Address of one shard's rows inside a multi-shard column block.

    A block's samples are several shards' rows laid end to end (the cube's
    slices in order, ``n_iterations * n_threads`` rows each); ``start:stop``
    delimits one shard's rows, and (trial, process) its serial ordering
    key.
    """

    trial: int
    process: int
    start: int
    stop: int

    @property
    def n_samples(self) -> int:
        return self.stop - self.start

    @property
    def sort_key(self) -> Tuple[int, int]:
        """Position in the serial (trial-major) shard order."""
        return (self.trial, self.process)


@dataclass(frozen=True, eq=False)
class ColumnBlock:
    """A campaign's samples, in memory and in the shard store: what every
    analysis pass folds.

    ``cube[s]`` is slice ``s``'s ``(n_iterations, n_threads)`` matrix of
    compute times (seconds), its process-iteration groups; ``slices[s]`` is
    its (trial, process), one campaign shard, and ``rows(slices[s])`` that
    shard's samples as a one-slice block.  Every slice lists the same
    ascending ``iterations`` and ``threads``, so the id columns are a base
    plus the shape: :attr:`columns` derives them only when read.  ``stored``
    (:class:`~repro.io.shard_store.StoredRows`) is set on blocks read from a
    shard store, for re-reading a slice's samples later.
    """

    cube: np.ndarray
    slices: Tuple[ShardSlice, ...]
    iterations: np.ndarray
    threads: np.ndarray
    stored: Optional[Any] = None

    @property
    def n_samples(self) -> int:
        return int(self.cube.size)

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """The block's flat columns, built on demand: the ids from the
        slices and the shape (not cached), ``compute_time_s`` a flat view
        of the cube."""
        n_slices, n_iterations, n_threads = self.cube.shape
        ids = np.array([sl.sort_key for sl in self.slices], dtype=np.int32)
        iteration = np.repeat(self.iterations.astype(np.int32), n_threads)
        return {
            "trial": np.repeat(ids[:, 0], n_iterations * n_threads),
            "process": np.repeat(ids[:, 1], n_iterations * n_threads),
            "iteration": np.tile(iteration, n_slices),
            "thread": np.tile(self.threads.astype(np.int32), n_slices * n_iterations),
            "compute_time_s": self.cube.reshape(-1),
        }

    def rows(self, shard: ShardSlice) -> "ColumnBlock":
        """The rows of ``shard`` (one of :attr:`slices`) as a block of their
        own: views of this block's arrays."""
        size = self.cube.shape[1] * self.cube.shape[2]
        k = shard.start // size
        return ColumnBlock(
            self.cube[k : k + 1],
            (shard._replace(start=0, stop=size),),
            self.iterations,
            self.threads,
            None if self.stored is None else self.stored.rows_from(k),
        )

    @cached_property
    def sorted_cube(self) -> np.ndarray:
        """``np.sort(cube, axis=-1)``: every group's samples in ascending
        order, read-only, built on first use and shared by every pass that
        reads order statistics of the block."""
        ordered = np.sort(self.cube, axis=-1)
        ordered.flags.writeable = False
        return ordered


def campaign_block(
    shards: Sequence[Tuple[int, int]],
    compute_times_s: np.ndarray,
) -> ColumnBlock:
    """The block of a ``(n_shards, n_iterations, n_threads)`` tensor of
    compute times sampled for the (trial, process) ``shards``: the tensor is
    the cube, without a copy if it is contiguous float64."""
    times = np.ascontiguousarray(compute_times_s, dtype=np.float64)
    if times.ndim != 3:
        raise ValueError(f"compute_times_s must be 3-D, got shape {times.shape}")
    if len(shards) != times.shape[0]:
        raise ValueError(f"got {len(shards)} shard ids for {times.shape[0]} planes")
    if np.any(times < 0):
        raise ValueError("compute times must be non-negative")
    n_shards, n_iterations, n_threads = times.shape
    size = n_iterations * n_threads
    slices = tuple(
        ShardSlice(int(trial), int(process), k * size, (k + 1) * size)
        for k, (trial, process) in enumerate(shards)
    )
    return ColumnBlock(
        times,
        slices,
        np.arange(n_iterations, dtype=np.int32),
        np.arange(n_threads, dtype=np.int32),
    )


def canonical_block(
    columns: Mapping[str, np.ndarray], slices: Sequence[ShardSlice]
) -> ColumnBlock:
    """The canonical :class:`ColumnBlock` of flat ``columns`` addressed by
    ``slices``.

    For column input that is not a cube already — dataset-backed shards,
    rows in any order: each declared (trial, process) slice's rows are
    stable-sorted into dense (iteration, thread) order, so the cube is the
    one a campaign producer would have emitted.  Columns beyond the ids and
    ``compute_time_s`` (a dataset's raw clock readings) are not kept.

    Raises ``ValueError`` on rows outside their slice's declared trial /
    process and on non-dense rows (a missing or repeated (iteration,
    thread) of some slice, or slices of unequal size).
    """
    if not slices:
        raise ValueError("a column block needs at least one slice")
    sizes = [sl.n_samples for sl in slices]
    rows = np.concatenate([np.arange(sl.start, sl.stop) for sl in slices])
    owner = np.repeat(np.arange(len(slices)), sizes)
    declared = np.array([sl.sort_key for sl in slices])[owner]
    if np.any(np.asarray(columns["trial"])[rows] != declared[:, 0]) or np.any(
        np.asarray(columns["process"])[rows] != declared[:, 1]
    ):
        raise ValueError("block rows lie outside their slice's trial/process")
    iteration = np.asarray(columns["iteration"])[rows]
    thread = np.asarray(columns["thread"])[rows]
    order = np.lexsort((thread, iteration, owner))
    layout = None
    if sizes[0] and len(set(sizes)) == 1:
        layout = _layout(iteration[order], thread[order], len(slices))
    if layout is None:
        raise ValueError(
            "block rows are not dense: every (trial, process) needs each "
            "(iteration, thread) exactly once"
        )
    shape, iterations, threads = layout
    cube = np.asarray(columns["compute_time_s"], dtype=np.float64)[rows[order]]
    size = sizes[0]
    rebased = tuple(
        sl._replace(start=k * size, stop=(k + 1) * size) for k, sl in enumerate(slices)
    )
    return ColumnBlock(cube.reshape(shape), rebased, iterations, threads)


def _layout(
    iteration: np.ndarray, thread: np.ndarray, n_slices: int
) -> Optional[Tuple[Tuple[int, int, int], np.ndarray, np.ndarray]]:
    """``(shape, iterations, threads)`` if ``n_slices`` equal runs of rows
    each list the same ascending iterations, each with the same ascending
    threads."""
    size = len(iteration) // n_slices
    n_threads = int(np.argmax(iteration[:size] != iteration[0])) or size
    if size % n_threads:
        return None
    shape = (n_slices, size // n_threads, n_threads)
    threads = thread[:n_threads]
    iterations = iteration[:size:n_threads]
    if np.any(np.diff(threads) <= 0) or np.any(np.diff(iterations) <= 0):
        return None
    if not np.array_equal(thread.reshape(shape), np.broadcast_to(threads, shape)):
        return None
    if not np.array_equal(
        iteration.reshape(shape), np.broadcast_to(iterations[:, np.newaxis], shape)
    ):
        return None
    return shape, iterations.astype(np.int32), threads.astype(np.int32)
