"""OpenMP loop schedules.

A schedule maps loop iterations (work items) to threads.  Every schedule
has one fold, :meth:`LoopSchedule.simulate_campaign`: a whole campaign's
``(n_shards, n_instances, n_items)`` cost tensor becomes the
``(n_shards, n_instances, n_threads)`` per-thread busy times.  One loop
instance is a ``(1, 1, n_items)`` tensor.  Chunk boundaries depend only on
the loop's geometry, never on the realised costs, so the static clauses
fold in closed form and the work-stealing-style ones (``dynamic``,
``guided``) replay the "grab the next chunk when idle" policy for every
row at once.

The default for the proxy applications is ``static`` — the OpenMP default for
``parallel for`` in the Mantevo apps the paper instruments — which is exactly
what creates MiniFE's deterministic imbalance (200 planes over 48 threads).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of contiguous blocks along the last axis, in one
    ``np.add.reduceat`` call.

    ``offsets`` has ``n_segments + 1`` monotone entries covering
    ``values[..., offsets[0]:offsets[-1]]``; segment ``k`` is
    ``values[..., offsets[k]:offsets[k+1]]``, shared by every leading index,
    and the result has shape ``values.shape[:-1] + (n_segments,)``.  Each
    segment is summed left-to-right, so every row of an N-D input matches
    what a 1-D call returns for it.  Empty segments (``offsets[k] ==
    offsets[k+1]``) sum to zero — ``np.add.reduceat`` alone would return the
    element *at* the boundary for those, so they are masked out explicitly.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    if np.any(sizes < 0):
        raise ValueError("offsets must be monotonically non-decreasing")
    arr = np.asarray(values, dtype=np.float64)
    out = np.zeros(arr.shape[:-1] + (len(sizes),), dtype=np.float64)
    nonempty = sizes > 0
    if nonempty.any():
        # slice to the covered range (reduceat would otherwise fold any
        # tail beyond offsets[-1] into the last segment); dropping empty
        # segments keeps the remaining starts strictly increasing and
        # contiguous, exactly what reduceat expects
        out[..., nonempty] = np.add.reduceat(
            arr[..., : offsets[-1]], offsets[:-1][nonempty], axis=-1
        )
    return out


@lru_cache(maxsize=1024)
def _static_block_offsets(n_items: int, n_threads: int) -> np.ndarray:
    """Memoized boundaries of the chunk-less static split (read-only).

    Every fold of one loop geometry asks for the same ``(n_items,
    n_threads)`` split; the answer never changes, so it is computed once
    and shared.
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
    arrays are shared and read-only: every fold of a ``dynamic`` clause
    re-asks for the same ``(n_items, chunk)`` layout, so it is computed
    once.
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
    once per call (read-only shared arrays, like
    :func:`_dynamic_chunk_layout`'s).
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


class LoopSchedule(ABC):
    """Abstract iteration-to-thread assignment policy, folded by
    :meth:`simulate_campaign`."""

    #: schedule kind string, e.g. ``"static"``
    kind: str = "abstract"

    @abstractmethod
    def simulate_campaign(self, costs: np.ndarray, n_threads: int) -> np.ndarray:
        """Per-thread busy time of a whole campaign's loop instances at once.

        ``costs`` has shape ``(n_shards, n_instances, n_items)`` — one plane
        per (trial, process) shard, one row per application iteration; the
        return value is the ``(n_shards, n_instances, n_threads)`` busy-time
        tensor.
        """

    # ------------------------------------------------------------------
    @staticmethod
    def _validate(costs: np.ndarray, n_threads: int) -> np.ndarray:
        arr = np.asarray(costs, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError("costs must be a 3-D array (shards x instances x items)")
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
        the chunk-less split policy.  Memoized (read-only array)."""
        return _static_block_offsets(int(n_items), int(n_threads))

    def _chunk_offsets(self, n_items: int) -> np.ndarray:
        """Segment boundaries of the round-robin chunk decomposition."""
        starts = np.arange(0, n_items, self.chunk, dtype=np.int64)
        return np.concatenate((starts, [n_items]))

    def simulate_campaign(self, costs: np.ndarray, n_threads: int) -> np.ndarray:
        """Closed form: the assignment is cost-independent, so the chunk-less
        split folds the whole tensor through one :func:`segment_sums`; the
        round-robin clause sums chunks over the flattened ``(rows, items)``
        view and scatters them to their dealt threads in one ``np.add.at``."""
        arr = self._validate(costs, n_threads)
        n_shards, n_instances, n_items = arr.shape
        if self.chunk is None:
            return segment_sums(arr, self._block_offsets(n_items, n_threads))
        rows = arr.reshape(n_shards * n_instances, n_items)
        chunk_sums = segment_sums(rows, self._chunk_offsets(n_items))
        busy = np.zeros((rows.shape[0], n_threads), dtype=np.float64)
        threads_of = np.arange(chunk_sums.shape[1]) % n_threads
        # round-robin deals many chunks to the same thread: the unbuffered
        # np.add.at accumulates the duplicates
        np.add.at(
            busy, (np.arange(rows.shape[0])[:, None], threads_of[None, :]), chunk_sums
        )
        return busy.reshape(n_shards, n_instances, n_threads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StaticSchedule(chunk={self.chunk})"


class _WorkQueueSchedule(LoopSchedule):
    """Shared machinery for dynamic/guided: idle threads grab the next chunk."""

    def _chunk_layout(self, n_items: int, n_threads: int) -> Tuple[np.ndarray, np.ndarray]:
        """Memoized ``(sizes, bounds)`` chunk decomposition (read-only,
        shared).  Chunk boundaries depend only on the loop geometry — never
        on the realised costs — which is what makes the row-vectorised
        work-queue replay of :meth:`simulate_campaign` possible."""
        raise NotImplementedError

    def simulate_campaign(self, costs: np.ndarray, n_threads: int) -> np.ndarray:
        """Row-vectorised work-queue replay of every loop instance at once.

        Chunk boundaries depend only on ``(n_items, n_threads[, chunk])``,
        so every row shares the same hand-out sequence; only *which thread*
        grabs chunk ``k`` depends on the realised costs.  The tensor is
        flattened to its ``(rows, items)`` view and replayed by
        :meth:`_workqueue_replay`: ``n_shards * n_instances`` per-row heap
        replays collapse into ``n_chunks`` vectorised steps, every row
        bit-identical to a heap replay of it (same chunk sums, same adds in
        the same order — Hypothesis-pinned against the test tree's heap
        replay in ``tests/property/test_prop_schedule.py``).
        """
        arr = self._validate(costs, n_threads)
        n_shards, n_instances, n_items = arr.shape
        busy, _ = self._workqueue_replay(
            arr.reshape(n_shards * n_instances, n_items), n_threads, want_picks=False
        )
        return busy.reshape(n_shards, n_instances, n_threads)

    def _workqueue_replay(
        self, arr: np.ndarray, n_threads: int, want_picks: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Replay the "idle thread grabs the next chunk" policy for all rows
        of an ``(n_rows, n_items)`` matrix simultaneously.

        Pre-sums every row's chunks in one :func:`segment_sums`, then keeps
        an ``(n_rows, n_threads)`` busy-time matrix, which is also each
        thread's next available time: one ``argmin`` per chunk (first
        minimum == lowest thread id, exactly a heap's ``(time, thread)``
        tie-break) and one fancy-indexed add per chunk.  Returns ``(busy,
        picks)``; with ``want_picks`` ``picks[i, k]`` is the thread that
        executed hand-out chunk ``k`` of row ``i``, otherwise ``None``.
        """
        n_rows, n_items = arr.shape
        _, bounds = self._chunk_layout(n_items, n_threads)
        # non-empty chunks form a prefix (sizes are positive; clamping only
        # flattens the tail)
        n_chunks = int(np.count_nonzero(np.diff(bounds)))
        # chunk-major, so each step reads one contiguous row of costs
        chunk_costs = np.ascontiguousarray(segment_sums(arr, bounds).T)
        busy = np.zeros((n_rows, n_threads), dtype=np.float64)
        cells = busy.reshape(-1)
        row_starts = np.arange(n_rows) * n_threads
        picks = np.empty((n_rows, n_chunks), dtype=np.int64) if want_picks else None
        for k in range(n_chunks):
            # first minimum per row == lowest thread id among the earliest
            # available, the heap's (time, thread) ordering
            thread = np.argmin(busy, axis=1)
            # each row adds to exactly one (row, thread) cell, so the
            # buffered fancy-indexed add is safe (and far faster than
            # np.add.at)
            cells[row_starts + thread] += chunk_costs[k]
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
