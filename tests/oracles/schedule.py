"""The loop schedules replayed one loop instance at a time.

The program folds every schedule through
:meth:`~repro.openmp.schedule.LoopSchedule.simulate_campaign`, a whole
campaign's cost tensor at once.  This module is the per-row reference
it is checked against: :func:`simulate` replays one 1-D cost vector and
also returns the realised assignment.  For the work-stealing-style
schedules (``dynamic``, ``guided``) it keeps a heap of ``(available
time, thread)`` and hands the next chunk to the thread on top, the "grab
the next chunk when idle" policy.  :func:`static_assignment` gives the
item indices of every thread for the clauses whose assignment is known
before execution (``static`` and ``static,chunk``); the event oracle
runs those.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.openmp.schedule import LoopSchedule, StaticSchedule, segment_sums


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
        hand-out order.
    """

    assignment: List[np.ndarray]
    busy_time: np.ndarray
    chunks: List[Tuple[int, int, int]]


@lru_cache(maxsize=1024)
def _static_assignment_cached(
    n_items: int, n_threads: int, chunk: Optional[int]
) -> Tuple[np.ndarray, ...]:
    """Memoized static item-to-thread assignment (read-only arrays)."""
    indices = np.arange(n_items)
    if chunk is None:
        offsets = StaticSchedule._block_offsets(n_items, n_threads)
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


def static_assignment(
    schedule: LoopSchedule, n_items: int, n_threads: int
) -> Optional[List[np.ndarray]]:
    """Item indices per thread of a static clause, ``None`` for a schedule
    whose assignment depends on execution.  Memoized per ``(n_items,
    n_threads, chunk)``; the returned arrays are shared and read-only."""
    if not isinstance(schedule, StaticSchedule):
        return None
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    return list(_static_assignment_cached(int(n_items), int(n_threads), schedule.chunk))


def simulate(schedule: LoopSchedule, costs: np.ndarray, n_threads: int) -> ScheduleOutcome:
    """Replay ``schedule`` on ``costs`` (one entry per loop iteration)."""
    arr = np.asarray(costs, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("costs must be a 1-D array (one entry per iteration)")
    # the program's own checks, on the one-row tensor
    schedule._validate(arr[np.newaxis, np.newaxis], n_threads)
    if isinstance(schedule, StaticSchedule):
        return _simulate_static(schedule, arr, n_threads)
    return _simulate_work_queue(schedule, arr, n_threads)


def _simulate_static(
    schedule: StaticSchedule, arr: np.ndarray, n_threads: int
) -> ScheduleOutcome:
    assignment = static_assignment(schedule, len(arr), n_threads)
    if schedule.chunk is None:
        busy = segment_sums(arr, schedule._block_offsets(len(arr), n_threads))
    else:
        # round-robin chunks: per-chunk sums via reduceat, scattered to
        # their dealt thread
        chunk_sums = segment_sums(arr, schedule._chunk_offsets(len(arr)))
        busy = np.zeros(n_threads)
        np.add.at(busy, np.arange(len(chunk_sums)) % n_threads, chunk_sums)
    chunks = [
        (t, int(idx[0]), len(idx)) for t, idx in enumerate(assignment) if len(idx)
    ]
    return ScheduleOutcome(assignment=assignment, busy_time=busy, chunks=chunks)


def _simulate_work_queue(
    schedule: LoopSchedule, arr: np.ndarray, n_threads: int
) -> ScheduleOutcome:
    _, bounds = schedule._chunk_layout(len(arr), n_threads)
    # non-empty chunks form a prefix (sizes are positive; clamping only
    # flattens the tail)
    n_chunks = int(np.count_nonzero(np.diff(bounds)))
    # pre-sum every chunk in one vectorised reduceat
    chunk_costs = segment_sums(arr, bounds)
    # priority queue of (available_time, thread); ties broken by thread id
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
        (int(picks[k]), int(bounds[k]), int(eff_sizes[k])) for k in range(n_chunks)
    ]
    # items sorted by executing thread, stable, is exactly "each thread's
    # chunks concatenated in hand-out order" (chunks are handed out in
    # ascending item order)
    item_threads = np.repeat(picks, eff_sizes)
    order = np.argsort(item_threads, kind="stable")
    counts = np.bincount(item_threads, minlength=n_threads)
    assignment = list(np.split(order, np.cumsum(counts)[:-1]))
    return ScheduleOutcome(assignment=assignment, busy_time=busy, chunks=chunks)
