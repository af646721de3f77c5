"""OpenMP loop schedules.

A schedule maps loop iterations (work items) to threads.  Two interfaces are
exposed because the execution simulator has two paths:

* :meth:`LoopSchedule.static_assignment` — for schedules whose assignment is
  known before execution (``static`` and ``static,chunk``), return the item
  indices of every thread.
* :meth:`LoopSchedule.simulate` — for work-stealing-style schedules
  (``dynamic``, ``guided``) the assignment depends on execution order; the
  closed-form simulation replays the "grab the next chunk when idle" policy
  against the per-item cost vector and returns both the per-thread busy time
  and the realised assignment.

The default for the proxy applications is ``static`` — the OpenMP default for
``parallel for`` in the Mantevo apps the paper instruments — which is exactly
what creates MiniFE's deterministic imbalance (200 planes over 48 threads).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def scatter_add_2d(
    target: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    *,
    unique: bool = False,
) -> np.ndarray:
    """``target[rows, cols] += values`` with explicit duplicate semantics.

    The campaign kernels scatter per-chunk sums into ``(instances, threads)``
    matrices; this is the one place that codifies how.  With ``unique=True``
    the caller asserts every ``(row, col)`` pair occurs at most once, so the
    buffered fancy-indexed add is safe — and much faster than ``np.add.at``
    (the work-queue kernel's per-chunk scatter picks exactly one thread per
    row).  With the default ``unique=False`` duplicates accumulate through
    the unbuffered ``np.add.at`` (the round-robin static kernel deals many
    chunks to the same thread).  ``rows``/``cols`` may broadcast against
    ``values``.  Returns ``target`` (mutated in place).

    Defined here (a leaf module, like :func:`segment_sums`) and re-exported
    by :mod:`repro.core.aggregation` for the analysis layer.
    """
    if unique:
        target[rows, cols] += values
    else:
        np.add.at(target, (rows, cols), values)
    return target


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of contiguous blocks, in one ``np.add.reduceat`` call.

    ``offsets`` has ``n_segments + 1`` monotone entries covering
    ``values[offsets[0]:offsets[-1]]``; segment ``k`` is
    ``values[offsets[k]:offsets[k+1]]``.  Empty segments (``offsets[k] ==
    offsets[k+1]``) sum to zero — ``np.add.reduceat`` alone would return the
    element *at* the boundary for those, so they are masked out explicitly.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    if np.any(sizes < 0):
        raise ValueError("offsets must be monotonically non-decreasing")
    out = np.zeros(len(sizes), dtype=np.float64)
    nonempty = sizes > 0
    if nonempty.any():
        # slice to the covered range (reduceat would otherwise fold any
        # tail beyond offsets[-1] into the last segment); dropping empty
        # segments keeps the remaining starts strictly increasing and
        # contiguous, exactly what reduceat expects
        arr = np.asarray(values, dtype=np.float64)[: offsets[-1]]
        out[nonempty] = np.add.reduceat(arr, offsets[:-1][nonempty])
    return out


def segment_sums_2d(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Row-wise :func:`segment_sums` of a 2-D matrix, in one ``reduceat``.

    ``values`` has shape ``(n_rows, n_values)``; ``offsets`` addresses
    segments along the last axis exactly as in :func:`segment_sums`, shared
    by every row.  Returns ``(n_rows, n_segments)``.  Each segment is summed
    left-to-right, so every row matches what :func:`segment_sums` returns
    for it — this is what keeps the row-vectorised schedule kernels
    bit-identical to their per-iteration counterparts.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    if np.any(sizes < 0):
        raise ValueError("offsets must be monotonically non-decreasing")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("values must be a 2-D matrix (rows x items)")
    out = np.zeros((arr.shape[0], len(sizes)), dtype=np.float64)
    nonempty = sizes > 0
    if nonempty.any():
        out[:, nonempty] = np.add.reduceat(
            arr[:, : offsets[-1]], offsets[:-1][nonempty], axis=1
        )
    return out


def segment_sums_3d(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """:func:`segment_sums_2d` with a leading shard axis, in one ``reduceat``.

    ``values`` has shape ``(n_shards, n_rows, n_values)`` — a whole
    campaign's per-item costs at once; ``offsets`` addresses segments along
    the last axis exactly as in :func:`segment_sums`, shared by every
    (shard, row) plane.  Returns ``(n_shards, n_rows, n_segments)``.  Each
    plane is summed left-to-right, so ``out[s]`` is bit-identical to
    ``segment_sums_2d(values[s], offsets)`` — the property that keeps the
    campaign backend's whole-tensor schedule fold bit-identical to the
    per-shard ``simulate_batch`` kernels.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    if np.any(sizes < 0):
        raise ValueError("offsets must be monotonically non-decreasing")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError("values must be a 3-D tensor (shards x rows x items)")
    out = np.zeros((arr.shape[0], arr.shape[1], len(sizes)), dtype=np.float64)
    nonempty = sizes > 0
    if nonempty.any():
        out[:, :, nonempty] = np.add.reduceat(
            arr[:, :, : offsets[-1]], offsets[:-1][nonempty], axis=2
        )
    return out


@lru_cache(maxsize=1024)
def _static_block_offsets(n_items: int, n_threads: int) -> np.ndarray:
    """Memoized boundaries of the chunk-less static split (read-only).

    The per-iteration execution paths (event backend, ``base_thread_times``)
    ask for the same ``(n_items, n_threads)`` split every call; the answer
    never changes, so it is computed once and shared.
    """
    base = n_items // n_threads
    remainder = n_items % n_threads
    sizes = np.full(n_threads, base, dtype=np.int64)
    sizes[:remainder] += 1
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    offsets.setflags(write=False)
    return offsets


@lru_cache(maxsize=1024)
def _dynamic_chunk_layout(n_items: int, chunk: int) -> Tuple[np.ndarray, np.ndarray]:
    """Memoized ``(sizes, bounds)`` of the dynamic chunk decomposition.

    ``sizes`` are the hand-out chunk lengths; ``bounds`` are the cumulative
    boundaries clamped to ``n_items`` (the last chunk may be short).  Both
    arrays are shared and read-only: every ``simulate``/``simulate_batch``
    call on a ``dynamic`` clause re-asks for the same ``(n_items, chunk)``
    layout, so it is computed once.
    """
    n_chunks = (n_items + chunk - 1) // chunk
    sizes = np.full(n_chunks, chunk, dtype=np.int64)
    bounds = np.minimum(np.concatenate(([0], np.cumsum(sizes))), n_items)
    sizes.setflags(write=False)
    bounds.setflags(write=False)
    return sizes, bounds


@lru_cache(maxsize=1024)
def _guided_chunk_layout(
    n_items: int, n_threads: int, min_chunk: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Memoized ``(sizes, bounds)`` of the guided chunk decomposition.

    The geometrically shrinking sizing loop is pure Python; memoizing per
    ``(n_items, n_threads, min_chunk)`` runs it once per layout instead of
    once per call (read-only shared arrays, mirroring
    :func:`_static_assignment_cached`).
    """
    size_list: List[int] = []
    remaining = n_items
    while remaining > 0:
        size = max(min_chunk, remaining // (2 * n_threads))
        size = min(size, remaining)
        size_list.append(size)
        remaining -= size
    sizes = np.asarray(size_list, dtype=np.int64)
    bounds = np.minimum(np.concatenate(([0], np.cumsum(sizes))), n_items)
    sizes.setflags(write=False)
    bounds.setflags(write=False)
    return sizes, bounds


@lru_cache(maxsize=1024)
def _static_assignment_cached(
    n_items: int, n_threads: int, chunk: Optional[int]
) -> Tuple[np.ndarray, ...]:
    """Memoized static item-to-thread assignment (read-only arrays)."""
    indices = np.arange(n_items)
    if chunk is None:
        offsets = _static_block_offsets(n_items, n_threads)
        parts = [indices[offsets[t] : offsets[t + 1]] for t in range(n_threads)]
    else:
        chunks = [
            indices[start : start + chunk] for start in range(0, n_items, chunk)
        ]
        dealt: List[List[np.ndarray]] = [[] for _ in range(n_threads)]
        for idx, piece in enumerate(chunks):
            dealt[idx % n_threads].append(piece)
        parts = [
            np.concatenate(p) if p else np.empty(0, dtype=np.int64) for p in dealt
        ]
    for part in parts:
        part.setflags(write=False)
    return tuple(parts)


@dataclass
class ScheduleOutcome:
    """Result of replaying a schedule against a per-item cost vector.

    Attributes
    ----------
    assignment:
        ``assignment[t]`` is the array of item indices executed by thread ``t``
        in execution order.
    busy_time:
        Total compute time per thread (sum of its items' costs).
    chunks:
        The chunks handed out, as ``(thread, start_item, n_items)`` tuples in
        hand-out order (useful for tests and traces).
    """

    assignment: List[np.ndarray]
    busy_time: np.ndarray
    chunks: List[Tuple[int, int, int]]


class LoopSchedule(ABC):
    """Abstract iteration-to-thread assignment policy."""

    #: schedule kind string, e.g. ``"static"``
    kind: str = "abstract"

    @abstractmethod
    def simulate(self, costs: np.ndarray, n_threads: int) -> ScheduleOutcome:
        """Replay the schedule on ``costs`` (one entry per loop iteration)."""

    def simulate_batch(self, costs: np.ndarray, n_threads: int) -> np.ndarray:
        """Per-thread busy time of many independent loop instances at once.

        ``costs`` has shape ``(n_instances, n_items)`` — one row per
        application iteration of a campaign shard; the return value is the
        ``(n_instances, n_threads)`` busy-time matrix.  The base
        implementation replays each row through :meth:`simulate` — the
        fallback for custom schedules; every built-in schedule overrides it
        with a vectorised whole-matrix kernel (closed-form folds for the
        static clauses, the row-vectorised work-queue replay for
        dynamic/guided).  Every row is bit-identical to
        ``simulate(costs[i], n_threads).busy_time``.
        """
        arr = self._validate_batch(costs, n_threads)
        busy = np.empty((arr.shape[0], n_threads), dtype=np.float64)
        for i in range(arr.shape[0]):
            busy[i] = self.simulate(arr[i], n_threads).busy_time
        return busy

    def simulate_campaign(self, costs: np.ndarray, n_threads: int) -> np.ndarray:
        """Per-thread busy time of a whole campaign's loop instances at once.

        ``costs`` has shape ``(n_shards, n_instances, n_items)`` — one plane
        per (trial, process) shard; the return value is the
        ``(n_shards, n_instances, n_threads)`` busy-time tensor.  The base
        implementation flattens the leading axes through
        :meth:`simulate_batch` (a zero-copy view for contiguous input), so
        one call folds the entire campaign — static clauses via one
        closed-form ``reduceat``, dynamic/guided via one row-vectorised
        work-queue replay over all ``n_shards * n_instances`` rows.  Every
        plane is bit-identical to ``simulate_batch(costs[s], n_threads)``.
        """
        arr = self._validate_campaign(costs, n_threads)
        n_shards, n_instances, n_items = arr.shape
        flat = self.simulate_batch(arr.reshape(n_shards * n_instances, n_items), n_threads)
        return flat.reshape(n_shards, n_instances, n_threads)

    def static_assignment(
        self, n_items: int, n_threads: int
    ) -> Optional[List[np.ndarray]]:
        """Assignment independent of costs, or ``None`` if execution-dependent."""
        return None

    # ------------------------------------------------------------------
    @staticmethod
    def _validate(costs: np.ndarray, n_threads: int) -> np.ndarray:
        arr = np.asarray(costs, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("costs must be a 1-D array (one entry per iteration)")
        if np.any(arr < 0):
            raise ValueError("per-iteration costs must be non-negative")
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        return arr

    @staticmethod
    def _validate_batch(costs: np.ndarray, n_threads: int) -> np.ndarray:
        arr = np.asarray(costs, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(
                "batch costs must be a 2-D matrix (instances x loop items)"
            )
        if np.any(arr < 0):
            raise ValueError("per-iteration costs must be non-negative")
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        return arr

    @staticmethod
    def _validate_campaign(costs: np.ndarray, n_threads: int) -> np.ndarray:
        arr = np.asarray(costs, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(
                "campaign costs must be a 3-D tensor (shards x instances x items)"
            )
        if np.any(arr < 0):
            raise ValueError("per-iteration costs must be non-negative")
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        return arr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class StaticSchedule(LoopSchedule):
    """``schedule(static[, chunk])``.

    Without a chunk size the iterations are divided into ``n_threads``
    contiguous blocks of near-equal length (earlier threads get the remainder,
    as mainstream OpenMP runtimes do).  With a chunk size, chunks are dealt
    round-robin.
    """

    kind = "static"

    def __init__(self, chunk: Optional[int] = None) -> None:
        if chunk is not None and chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.chunk = chunk

    @staticmethod
    def _block_offsets(n_items: int, n_threads: int) -> np.ndarray:
        """Boundaries of the ``n_threads`` contiguous near-equal blocks —
        the single source of the chunk-less split policy, shared by
        :meth:`static_assignment`, :meth:`simulate` and
        :meth:`simulate_batch`.  Memoized (read-only array)."""
        return _static_block_offsets(int(n_items), int(n_threads))

    def static_assignment(self, n_items: int, n_threads: int) -> List[np.ndarray]:
        """Item indices per thread.  Memoized per ``(n_items, n_threads,
        chunk)``; the returned arrays are shared and read-only."""
        if n_items < 0:
            raise ValueError("n_items must be non-negative")
        return list(_static_assignment_cached(int(n_items), int(n_threads), self.chunk))

    def _chunk_offsets(self, n_items: int) -> np.ndarray:
        """Segment boundaries of the round-robin chunk decomposition."""
        starts = np.arange(0, n_items, self.chunk, dtype=np.int64)
        return np.concatenate((starts, [n_items]))

    def simulate(self, costs: np.ndarray, n_threads: int) -> ScheduleOutcome:
        arr = self._validate(costs, n_threads)
        assignment = self.static_assignment(len(arr), n_threads)
        if self.chunk is None:
            # contiguous blocks: one vectorised reduceat instead of a
            # per-thread Python summation loop
            busy = segment_sums(arr, self._block_offsets(len(arr), n_threads))
        else:
            # round-robin chunks: per-chunk sums via reduceat, scattered to
            # their dealt thread
            chunk_sums = segment_sums(arr, self._chunk_offsets(len(arr)))
            busy = np.zeros(n_threads)
            np.add.at(busy, np.arange(len(chunk_sums)) % n_threads, chunk_sums)
        chunks = [
            (t, int(idx[0]), len(idx)) for t, idx in enumerate(assignment) if len(idx)
        ]
        return ScheduleOutcome(assignment=assignment, busy_time=busy, chunks=chunks)

    def simulate_batch(self, costs: np.ndarray, n_threads: int) -> np.ndarray:
        """Closed-form batch kernel: the assignment is cost-independent, so
        the whole ``(n_instances, n_items)`` matrix folds through one
        row-wise ``reduceat`` instead of ``n_instances`` replays."""
        arr = self._validate_batch(costs, n_threads)
        n_items = arr.shape[1]
        if self.chunk is None:
            return segment_sums_2d(arr, self._block_offsets(n_items, n_threads))
        chunk_sums = segment_sums_2d(arr, self._chunk_offsets(n_items))
        busy = np.zeros((arr.shape[0], n_threads), dtype=np.float64)
        threads_of = np.arange(chunk_sums.shape[1]) % n_threads
        # round-robin deals many chunks to the same thread: duplicates must
        # accumulate (unique=False)
        scatter_add_2d(
            busy,
            np.arange(arr.shape[0])[:, None],
            threads_of[None, :],
            chunk_sums,
        )
        return busy

    def simulate_campaign(self, costs: np.ndarray, n_threads: int) -> np.ndarray:
        """Whole-campaign closed form: the chunk-less split folds the full
        ``(n_shards, n_instances, n_items)`` tensor through one
        :func:`segment_sums_3d` without even the flattening view; the
        round-robin clause reuses the 2-D scatter kernel on the flattened
        rows (same adds in the same order, so planes stay bit-identical to
        :meth:`simulate_batch`)."""
        arr = self._validate_campaign(costs, n_threads)
        if self.chunk is None:
            return segment_sums_3d(arr, self._block_offsets(arr.shape[2], n_threads))
        return super().simulate_campaign(arr, n_threads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StaticSchedule(chunk={self.chunk})"


class _WorkQueueSchedule(LoopSchedule):
    """Shared machinery for dynamic/guided: idle threads grab the next chunk."""

    def _chunk_layout(self, n_items: int, n_threads: int) -> Tuple[np.ndarray, np.ndarray]:
        """Memoized ``(sizes, bounds)`` chunk decomposition (read-only,
        shared).  Chunk boundaries depend only on the loop geometry — never
        on the realised costs — which is what makes the whole-matrix
        work-queue replay of :meth:`simulate_batch` possible."""
        raise NotImplementedError

    def _chunk_sizes(self, n_items: int, n_threads: int) -> np.ndarray:
        """Hand-out chunk lengths (memoized read-only array)."""
        return self._chunk_layout(n_items, n_threads)[0]

    def simulate(self, costs: np.ndarray, n_threads: int) -> ScheduleOutcome:
        arr = self._validate(costs, n_threads)
        sizes, bounds = self._chunk_layout(len(arr), n_threads)
        # non-empty chunks form a prefix (sizes are positive; clamping only
        # flattens the tail)
        n_chunks = int(np.count_nonzero(np.diff(bounds)))
        # pre-sum every chunk in one vectorised reduceat
        chunk_costs = segment_sums(arr, bounds)
        # priority queue of (available_time, thread); ties broken by thread
        # id.  The loop body is deliberately minimal — heap bookkeeping and
        # the busy accumulation only; the per-chunk item arrays are rebuilt
        # vectorised below (repeat + stable argsort) instead of one
        # ``np.arange`` per chunk, which dominated wide loops like MiniFE's
        # 40k-pencil mat-vec.
        heap = [(0.0, t) for t in range(n_threads)]
        heapq.heapify(heap)
        busy = np.zeros(n_threads)
        picks = np.empty(n_chunks, dtype=np.int64)
        for k in range(n_chunks):
            available, thread = heapq.heappop(heap)
            cost = float(chunk_costs[k])
            busy[thread] += cost
            picks[k] = thread
            heapq.heappush(heap, (available + cost, thread))
        eff_sizes = np.diff(bounds[: n_chunks + 1])
        chunks = [
            (int(picks[k]), int(bounds[k]), int(eff_sizes[k]))
            for k in range(n_chunks)
        ]
        # items sorted by executing thread, stable, is exactly "each thread's
        # chunks concatenated in hand-out order" (chunks are handed out in
        # ascending item order)
        item_threads = np.repeat(picks, eff_sizes)
        order = np.argsort(item_threads, kind="stable")
        counts = np.bincount(item_threads, minlength=n_threads)
        assignment = list(np.split(order, np.cumsum(counts)[:-1]))
        return ScheduleOutcome(assignment=assignment, busy_time=busy, chunks=chunks)

    def simulate_batch(self, costs: np.ndarray, n_threads: int) -> np.ndarray:
        """Row-vectorised work-queue replay of many loop instances at once.

        Chunk boundaries depend only on ``(n_items, n_threads[, chunk])``,
        so every row shares the same hand-out sequence; only *which thread*
        grabs chunk ``k`` depends on the realised costs.  The kernel
        therefore pre-sums all per-chunk costs for the whole
        ``(n_instances, n_items)`` matrix in one :func:`segment_sums_2d`
        call and replays the "idle thread grabs the next chunk" policy for
        all rows simultaneously: an ``(n_instances, n_threads)``
        available-time matrix, one ``argmin`` per chunk (first-minimum ==
        lowest thread id, exactly the heap's ``(time, thread)`` tie-break)
        and one unique-index scatter-add per chunk.  ``n_instances`` heap
        replays collapse into ``n_chunks`` vectorised steps, and every row
        stays bit-identical to ``simulate(costs[i], n_threads).busy_time``
        (same chunk sums, same adds in the same order — Hypothesis-pinned in
        ``tests/property/test_prop_schedule.py``).
        """
        arr = self._validate_batch(costs, n_threads)
        busy, _ = self._workqueue_replay(arr, n_threads, want_picks=False)
        return busy

    def simulate_batch_details(
        self, costs: np.ndarray, n_threads: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batch busy times plus the realised chunk-to-thread assignment.

        Returns ``(busy, picks)`` where ``picks[i, k]`` is the thread that
        executed hand-out chunk ``k`` of row ``i`` — the batch analogue of
        ``ScheduleOutcome.chunks`` (used by the bit-equality tests and by
        traces; :meth:`simulate_batch` skips building it).
        """
        arr = self._validate_batch(costs, n_threads)
        return self._workqueue_replay(arr, n_threads, want_picks=True)

    def _workqueue_replay(
        self, arr: np.ndarray, n_threads: int, want_picks: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        n_instances, n_items = arr.shape
        _, bounds = self._chunk_layout(n_items, n_threads)
        # non-empty chunks form a prefix (sizes are positive; clamping only
        # flattens the tail), matching the heap replay's early break
        n_chunks = int(np.count_nonzero(np.diff(bounds)))
        chunk_costs = segment_sums_2d(arr, bounds)
        available = np.zeros((n_instances, n_threads), dtype=np.float64)
        busy = np.zeros((n_instances, n_threads), dtype=np.float64)
        picks = (
            np.empty((n_instances, n_chunks), dtype=np.int64) if want_picks else None
        )
        rows = np.arange(n_instances)
        for k in range(n_chunks):
            # first minimum per row == lowest thread id among the earliest
            # available, the heap's (time, thread) ordering
            thread = np.argmin(available, axis=1)
            cost = chunk_costs[:, k]
            # each row scatters to exactly one (row, thread) cell: unique
            scatter_add_2d(available, rows, thread, cost, unique=True)
            scatter_add_2d(busy, rows, thread, cost, unique=True)
            if picks is not None:
                picks[:, k] = thread
        return busy, picks


class DynamicSchedule(_WorkQueueSchedule):
    """``schedule(dynamic[, chunk])`` — fixed-size chunks grabbed on demand."""

    kind = "dynamic"

    def __init__(self, chunk: int = 1) -> None:
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.chunk = chunk

    def _chunk_layout(self, n_items: int, n_threads: int) -> Tuple[np.ndarray, np.ndarray]:
        return _dynamic_chunk_layout(int(n_items), self.chunk)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicSchedule(chunk={self.chunk})"


class GuidedSchedule(_WorkQueueSchedule):
    """``schedule(guided[, chunk])`` — geometrically shrinking chunks."""

    kind = "guided"

    def __init__(self, min_chunk: int = 1) -> None:
        if min_chunk < 1:
            raise ValueError("min_chunk must be >= 1")
        self.min_chunk = min_chunk

    def _chunk_layout(self, n_items: int, n_threads: int) -> Tuple[np.ndarray, np.ndarray]:
        return _guided_chunk_layout(int(n_items), int(n_threads), self.min_chunk)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GuidedSchedule(min_chunk={self.min_chunk})"


def schedule_from_name(name: str, chunk: Optional[int] = None) -> LoopSchedule:
    """Build a schedule from an OpenMP-style clause string.

    ``"static"``, ``"static,8"``, ``"dynamic"``, ``"dynamic,4"``, ``"guided"``.
    """
    text = name.strip().lower()
    if "," in text:
        text, chunk_text = text.split(",", 1)
        chunk = int(chunk_text)
    text = text.strip()
    if text == "static":
        return StaticSchedule(chunk)
    if text == "dynamic":
        return DynamicSchedule(chunk if chunk is not None else 1)
    if text == "guided":
        return GuidedSchedule(chunk if chunk is not None else 1)
    raise ValueError(f"unknown schedule kind {name!r}")
