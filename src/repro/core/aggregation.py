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
:class:`GroupedSamples` matrix for any of the three levels;
:func:`aggregate_shard` does the same for a single
:class:`~repro.core.timing.TimingShard` without materialising a dataset —
the group-by is a vectorised sort/``bincount``/``reshape``, no per-key
Python loop — which is what lets the streaming analysis passes of
:mod:`repro.analysis` consume campaign shards directly.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.timing import TimingDataset, TimingShard

# re-exported for the analysis layer: the 2-D scatter-add primitive lives
# next to the schedule batch kernels that are its hottest consumers (and in
# a leaf module, which keeps this package's import graph acyclic)
from repro.openmp.schedule import scatter_add_2d  # noqa: F401


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

    def values_ms(self) -> np.ndarray:
        """Group matrix in milliseconds (the figures' unit)."""
        return self.values * 1.0e3

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

    def iteration_of(self, row: int) -> int:
        """Application-iteration index of group ``row`` (last key element)."""
        key = self.keys[row]
        if not key:
            raise ValueError("application-level groups have no iteration key")
        return int(key[-1])


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


# per-shard grouping memo: several analysis passes group the same shard at
# the same level within one accumulate step — the first call pays the
# argsort, the rest hit this cache.  Keyed by object identity and evicted
# when the shard is garbage-collected; long-lived shard holders (e.g. the
# streaming engine folding session-cached shards) release eagerly with
# :func:`release_shard_groups` once a shard's accumulate step is done.
_SHARD_GROUPS: Dict[int, Dict[AggregationLevel, GroupedSamples]] = {}


def release_shard_groups(shard: TimingShard) -> None:
    """Drop a shard's cached groupings (no-op if none are cached).

    The memo otherwise lives as long as the shard object does; callers that
    keep shards around after analysing them (cached campaign results) call
    this to return the grouping matrices immediately.
    """
    _SHARD_GROUPS.pop(id(shard), None)


def aggregate_shard(
    shard: TimingShard, level: AggregationLevel | str
) -> GroupedSamples:
    """Group a single campaign shard's samples at one of the paper's levels.

    The shard-streaming analogue of :func:`aggregate`: instead of scattering
    into a dense 4-D array, the shard's rows are ordered by a composite
    (trial, process, iteration, thread) code — one vectorised ``argsort``
    plus a ``bincount`` size check, no per-key Python loop — and reshaped
    into the ``(n_groups, group_size)`` matrix.  Row order inside each group
    is thread-ascending, exactly matching the dense path, so per-group
    statistics computed from shard aggregation are bit-identical to the
    merged-dataset path.

    Groups are *local to the shard*: a (trial, process) shard yields one
    process-iteration group per iteration, and per-iteration groups covering
    only that shard's samples (the streaming passes merge those partials
    across shards).
    """
    if isinstance(level, str):
        level = AggregationLevel.from_name(level)
    cached = _SHARD_GROUPS.get(id(shard))
    if cached is None:
        cached = _SHARD_GROUPS[id(shard)] = {}
        weakref.finalize(shard, _SHARD_GROUPS.pop, id(shard), None)
    if level in cached:
        return cached[level]
    cached[level] = grouped = _aggregate_shard(shard, level)
    return grouped


def _aggregate_shard(shard: TimingShard, level: AggregationLevel) -> GroupedSamples:
    columns: Mapping[str, np.ndarray] = shard.columns
    trial = np.asarray(columns["trial"], dtype=np.int64)
    process = np.asarray(columns["process"], dtype=np.int64)
    iteration = np.asarray(columns["iteration"], dtype=np.int64)
    thread = np.asarray(columns["thread"], dtype=np.int64)
    values = np.asarray(columns["compute_time_s"], dtype=np.float64)

    if level is AggregationLevel.APPLICATION:
        key_columns: Tuple[np.ndarray, ...] = ()
        minor_columns: Tuple[np.ndarray, ...] = (trial, process, iteration, thread)
    elif level is AggregationLevel.APPLICATION_ITERATION:
        key_columns = (iteration,)
        minor_columns = (trial, process, thread)
    elif level is AggregationLevel.PROCESS_ITERATION:
        key_columns = (trial, process, iteration)
        minor_columns = (thread,)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unsupported level {level}")

    # composite integer code: group key columns (major) then the remaining
    # dense axes (minor), so one argsort lands every group contiguously with
    # rows in the dense path's order
    ordered = (*key_columns, *minor_columns)
    spans = [int(col.max()) + 1 if len(col) else 1 for col in ordered]
    code = np.zeros(len(values), dtype=np.int64)
    for col, span in zip(ordered, spans):
        code = code * span + col
    order = np.argsort(code, kind="stable")

    if not key_columns:
        return GroupedSamples(
            level=level, keys=[()], values=values[order][np.newaxis, :]
        )

    group_code = np.zeros(len(values), dtype=np.int64)
    for col, span in zip(key_columns, spans[: len(key_columns)]):
        group_code = group_code * span + col
    unique_codes, inverse = np.unique(group_code, return_inverse=True)
    sizes = np.bincount(inverse, minlength=len(unique_codes))
    if len(set(sizes.tolist())) != 1:
        raise ValueError(
            "shard groups have unequal sizes; aggregation requires a dense shard"
        )
    group_size = int(sizes[0])
    matrix = values[order].reshape(len(unique_codes), group_size)
    key_starts = order[::group_size]
    keys = [
        tuple(int(col[row]) for col in key_columns) for row in key_starts
    ]
    return GroupedSamples(level=level, keys=keys, values=matrix)


def per_iteration_samples(dataset: TimingDataset) -> np.ndarray:
    """Matrix ``(n_iterations, samples_per_iteration)`` (percentile-plot input)."""
    grouped = aggregate(dataset, AggregationLevel.APPLICATION_ITERATION)
    return grouped.values


class ShardSlice(NamedTuple):
    """Address of one shard's rows inside a multi-shard column block.

    The columnar analysis path ships a chunk of shards as one set of flat
    columns plus one :class:`ShardSlice` per shard; ``start:stop`` delimits
    the shard's rows in every column.  Mirrors the identity attributes of
    :class:`~repro.core.timing.TimingShard` so per-shard partials built from
    a slice carry the same ordering key as shard-streaming partials.
    """

    trial: int
    process: Optional[int]
    start: int
    stop: int

    @property
    def n_samples(self) -> int:
        return self.stop - self.start

    @property
    def sort_key(self) -> Tuple[int, int]:
        """Position in the serial (trial-major) shard order (=
        :attr:`~repro.core.timing.TimingShard.sort_key`)."""
        return (self.trial, -1 if self.process is None else self.process)


# per-block grouping memo: within one columnar analysis step several passes
# group the same column block — the first call pays the layout checks, the
# rest hit this cache.  A column mapping cannot carry a weakref finalizer, so
# entries live only between :func:`hold_block_groups` and
# :func:`release_block_groups`.  Keyed by the columns' identity (the entry
# keeps them alive, so threads analysing distinct blocks never share an
# entry) and checked against the very objects held, so a call with other
# slices over the same columns groups afresh.
_BLOCK_GROUPS: Dict[int, list] = {}
_UNGROUPED = object()


def hold_block_groups(
    columns: Mapping[str, np.ndarray], slices: Sequence[ShardSlice]
) -> None:
    """Memoize :func:`campaign_block_groups` for this exact block.

    The grouping is computed on first use; pair every call with
    :func:`release_block_groups` (in a ``finally``).
    """
    _BLOCK_GROUPS[id(columns)] = [columns, slices, _UNGROUPED]


def release_block_groups(columns: Mapping[str, np.ndarray]) -> None:
    """Drop a block's memoized grouping (no-op if none is held)."""
    _BLOCK_GROUPS.pop(id(columns), None)


def campaign_block_groups(
    columns: Mapping[str, np.ndarray], slices: Sequence[ShardSlice]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Group a whole column block as one dense reshape, if its layout allows.

    Campaign producers (``record_campaign``, the tensor backend's chunk
    workers, the shard store's group payloads) emit rows in canonical dense
    order: iteration-major, thread-minor, threads ``0..T-1``, iterations
    ascending and identical for every shard.  For such a block the
    process-iteration group-by of *every shard at once* is a single
    ``values.reshape(n_shards, n_iterations, n_threads)`` — no per-shard
    argsort — and, because :func:`aggregate_shard`'s stable composite-code
    argsort is the identity permutation on dense-ordered rows, each
    ``matrix[s]`` is bit-identical to that shard's
    ``aggregate_shard(..., PROCESS_ITERATION).values``.

    Returns ``(matrix, iterations)`` with ``matrix`` of shape
    ``(n_shards, n_iterations, n_threads)`` and ``iterations`` the shared
    ascending iteration ids, or ``None`` when the block is not in canonical
    dense order (the caller falls back to the generic per-shard path).
    Served from the memo while the block is held (:func:`hold_block_groups`).
    """
    entry = _BLOCK_GROUPS.get(id(columns))
    if entry is None or entry[0] is not columns or entry[1] is not slices:
        return _campaign_block_groups(columns, slices)
    if entry[2] is _UNGROUPED:
        entry[2] = _campaign_block_groups(columns, slices)
    return entry[2]


def _campaign_block_groups(
    columns: Mapping[str, np.ndarray], slices: Sequence[ShardSlice]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    n_shards = len(slices)
    if n_shards == 0:
        return None
    values = np.asarray(columns["compute_time_s"], dtype=np.float64)
    iteration = np.asarray(columns["iteration"])
    thread = np.asarray(columns["thread"])
    trial = np.asarray(columns["trial"])
    process = np.asarray(columns["process"])
    size = slices[0].n_samples
    if size <= 0 or n_shards * size != len(values):
        return None
    for index, sl in enumerate(slices):
        if sl.start != index * size or sl.stop != sl.start + size:
            return None
    n_threads = int(thread[:size].max()) + 1 if size else 0
    if n_threads <= 0 or size % n_threads:
        return None
    n_iterations = size // n_threads
    try:
        thread_cube = thread.reshape(n_shards, n_iterations, n_threads)
        iter_cube = iteration.reshape(n_shards, n_iterations, n_threads)
        trial_rows = trial.reshape(n_shards, size)
        process_rows = process.reshape(n_shards, size)
    except ValueError:
        return None
    if not np.array_equal(
        thread_cube, np.broadcast_to(np.arange(n_threads), thread_cube.shape)
    ):
        return None
    iterations = iter_cube[0, :, 0]
    if np.any(np.diff(iterations) <= 0):
        return None
    if not np.array_equal(
        iter_cube, np.broadcast_to(iterations[:, np.newaxis], iter_cube.shape)
    ):
        return None
    slice_trials = np.array([sl.trial for sl in slices])
    slice_procs = np.array(
        [-1 if sl.process is None else sl.process for sl in slices]
    )
    if not np.array_equal(trial_rows, np.broadcast_to(slice_trials[:, np.newaxis], trial_rows.shape)):
        return None
    if not np.array_equal(process_rows, np.broadcast_to(slice_procs[:, np.newaxis], process_rows.shape)):
        return None
    return values.reshape(n_shards, n_iterations, n_threads), iterations
