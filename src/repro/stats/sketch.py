"""Mergeable quantile sketches for the bounded-memory analysis passes.

The streaming analysis passes need per-group percentiles without holding the
merged campaign in memory.  Two tools are provided:

* :class:`PercentileSketch` — a KLL-style multi-level compactor (Karnin,
  Lang & Liberty, FOCS 2016) over one *or many* streams.  Retained values
  live on levels of geometrically decaying capacity, where a level-``h``
  value stands for ``2**h`` original samples.  A level over its budget is
  sorted and every other element is promoted one level up (the
  deterministic even/odd choice alternates via a per-level parity counter),
  so the retained state stays at or below ``capacity`` values per stream
  while quantile queries interpolate the *weighted* CDF of the survivors.
  The sketch is exact until the first compaction (the bottom level's budget
  is the full capacity), always answers ``minimum`` / ``maximum`` exactly,
  and merging is level-wise concatenation plus the same compaction sweep —
  rank error stays bounded by the compaction schedule (roughly
  ``levels / capacity`` of rank; property-tested).

  The sketch is *row-batched*: a 2-D ``(n_rows, m)`` update feeds
  ``n_rows`` streams in lockstep, one per row.  Every compaction decision
  (level sizes, parities, budgets) depends only on the per-row sample
  count, which all rows share, so each level is an ``(n_rows, m_h)`` array
  and row ``r`` replays, bit for bit, a sketch fed row ``r`` alone.  The
  percentiles pass keeps one sketch per (trial, process) slice with the
  slice's iterations as rows instead of one sketch per (slice, iteration).
  A 1-D update is a single row and keeps 1-D result shapes.
* :class:`BoundedTopK` — a keyed companion: a bounded, mergeable pool of
  ``(value, key)`` candidates spanning the stream's value range, for
  queries that must answer with a *key* (e.g. the exemplar
  process-iteration whose laggard gap is closest to the class median,
  Figures 5/7/9) without retaining every group.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.stats.percentiles import sorted_percentiles


class PercentileSketch:
    """Mergeable, row-batched KLL-style quantile sketch.

    Parameters
    ----------
    capacity:
        Maximum number of retained support values per row, across all
        compactor levels.  While the per-row sample count stays at or below
        the capacity the sketch *is* exact (the bottom level's budget is the
        full capacity, so nothing compacts before then).

    Values are kept on *levels*: a value on level ``h`` stands for ``2**h``
    of the original samples.  When level ``h`` exceeds its budget it is
    sorted and every other element is promoted to level ``h + 1`` (the
    other half is discarded); the even/odd choice alternates
    deterministically via a per-level parity counter, so equal states fold
    equal streams identically — no randomness, reproducible campaigns.
    Level budgets decay geometrically from the top (the KLL schedule),
    which is what bounds both the state and the rank error; compaction is
    *lazy* — nothing is discarded while the total retained count fits in
    ``capacity``, keeping the sketch as accurate as the budget allows.

    A 2-D ``(n_rows, m)`` update adds ``m`` samples to each of ``n_rows``
    independent streams; every later update and merge must carry the same
    row count.  Queries then answer per row (``quantile`` returns
    ``(len(percentiles), n_rows)``).  A 1-D update is one row, and its
    queries keep 1-D shapes (a scalar percentile gives a scalar).
    """

    __slots__ = ("capacity", "n", "_levels", "_parity", "_min", "_max", "_batched")

    #: per-level budget decay of the KLL schedule (top level is largest)
    _DECAY = 0.5

    #: rows per step of an uncompacted quantile query
    _QUERY_ROWS = 16

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 8:
            raise ValueError("capacity must be >= 8")
        self.capacity = int(capacity)
        #: samples per row
        self.n = 0
        # per level, a list of (n_rows, m) column chunks joined lazily (see
        # _level): a merge appends references instead of copying the level.
        # No level before the first sample.
        self._levels: List[List[np.ndarray]] = []
        self._parity: List[int] = []
        # exact per-row extremes (scalars until the first sample)
        self._min = np.inf
        self._max = -np.inf
        self._batched = False

    @property
    def n_rows(self) -> int:
        """Number of streams (rows) the sketch holds (0 before any sample)."""
        return self._levels[0][0].shape[0] if self._levels else 0

    # ------------------------------------------------------------------
    def update(self, samples) -> "PercentileSketch":
        """Fold a batch of samples in (returns ``self``).

        A 2-D array adds one batch per row; anything else is one row.
        """
        arr = np.asarray(samples, dtype=np.float64)
        batched = arr.ndim == 2
        rows = arr if batched else arr.reshape(1, -1)
        if rows.size == 0:
            return self
        if not self._levels:
            self._levels, self._parity = [[]], [0]
            self._batched = batched
        elif len(rows) != self.n_rows:
            raise ValueError(f"expected {self.n_rows} rows, got {len(rows)}")
        # a copy: the sketch never holds on to the caller's buffer
        self._levels[0].append(np.array(rows))
        self._min = np.minimum(self._min, rows.min(axis=1))
        self._max = np.maximum(self._max, rows.max(axis=1))
        self.n += rows.shape[1]
        self._compact()
        return self

    def merge(self, other: "PercentileSketch") -> "PercentileSketch":
        """New sketch summarising the union of both sample sets, row by row."""
        if self.n and other.n and self.n_rows != other.n_rows:
            raise ValueError(
                f"cannot merge sketches of {self.n_rows} and {other.n_rows} rows"
            )
        merged = PercentileSketch(min(self.capacity, other.capacity))
        merged.n = self.n + other.n
        if not merged.n:
            return merged
        merged._batched = self._batched or other._batched
        merged._min = np.minimum(self._min, other._min)
        merged._max = np.maximum(self._max, other._max)
        for h in range(max(len(self._levels), len(other._levels))):
            mine = self._levels[h] if h < len(self._levels) else []
            theirs = other._levels[h] if h < len(other._levels) else []
            merged._levels.append(mine + theirs)
            merged._parity.append(
                (self._parity[h] if h < len(self._parity) else 0)
                + (other._parity[h] if h < len(other._parity) else 0)
            )
        merged._compact()
        return merged

    # ------------------------------------------------------------------
    def _level_budget(self, h: int, n_levels: int) -> int:
        """Retained-value budget of level ``h`` with ``n_levels`` in play.

        With one level the whole capacity is the budget (the exact-until-
        first-compaction guarantee); afterwards budgets decay geometrically
        from the top so the total stays within ``capacity``
        (``sum cap*(1-c)*c^d <= cap``).
        """
        if n_levels <= 1:
            return self.capacity
        top = max(int(np.ceil(self.capacity * (1.0 - self._DECAY))), 4)
        budget = int(np.ceil(top * self._DECAY ** (n_levels - 1 - h)))
        return max(budget, 2)

    def _level(self, h: int) -> np.ndarray:
        """Level ``h`` as one ``(n_rows, m_h)`` array (its chunks joined once)."""
        chunks = self._levels[h]
        if len(chunks) > 1:
            chunks[:] = [np.concatenate(chunks, axis=1)]
        return chunks[0]

    def _widths(self) -> List[int]:
        """Retained values per row on each level."""
        return [sum(chunk.shape[1] for chunk in level) for level in self._levels]

    def _compact_level(self, h: int) -> None:
        """Promote half of level ``h`` one level up, discarding the rest."""
        buf = np.sort(self._level(h), axis=1, kind="stable")
        parity = self._parity[h]
        self._parity[h] = parity + 1
        keep = buf[:, :0]
        if buf.shape[1] % 2:
            # odd buffer: hold one element back (alternating ends) so the
            # promoted pairs cover the rest exactly — weight is conserved
            if parity & 1:
                keep, buf = buf[:, :1], buf[:, 1:]
            else:
                keep, buf = buf[:, -1:], buf[:, :-1]
        # copies, not views: a view would keep the whole sorted buffer alive
        promoted = buf[:, (parity & 1) :: 2].copy()
        self._levels[h] = [keep.copy()]
        if h + 1 == len(self._levels):
            self._levels.append([])
            self._parity.append(0)
        self._levels[h + 1].append(promoted)

    def _compact(self) -> None:
        """Lazy compaction sweep (the space-efficient KLL variant).

        Nothing compacts while the total retained count fits in
        ``capacity`` — the sketch stays as full (and as accurate) as the
        budget allows.  Over capacity, the lowest over-budget level is
        compacted first (cheap: its survivors carry the smallest weights);
        if every level is individually within budget, the lowest level
        holding at least a pair is compacted to restore the invariant.
        """
        widths = self._widths()
        while sum(widths) > self.capacity:
            n_levels = len(widths)
            over = [
                h for h, w in enumerate(widths) if w > self._level_budget(h, n_levels)
            ]
            pairs = [h for h, w in enumerate(widths) if w >= 2]
            if not (over or pairs):  # pragma: no cover - every level a singleton
                break
            self._compact_level((over or pairs)[0])
            widths = self._widths()

    def _rows_result(self, result):
        """``result`` (row axis last) in the caller's shape: batched sketches
        keep the row axis, a 1-D sketch drops it."""
        return result if self._batched else result[..., 0][()]

    # ------------------------------------------------------------------
    def quantile(self, percentile) -> np.ndarray:
        """Approximate percentile(s) of the accumulated samples (0..100).

        Before the first compaction this is exactly ``np.percentile`` of
        each row's pooled samples.  After compaction the query interpolates
        each row's weighted CDF of the retained values (each level-``h``
        survivor counts ``2**h`` samples), with the extremes pinned to the
        exact minimum/maximum.  A batched sketch answers with shape
        ``(len(percentiles), n_rows)`` (``(n_rows,)`` for a scalar).
        """
        if self.n == 0:
            raise ValueError("no samples observed")
        if len(self._levels) == 1:
            # never compacted: every sample is retained at weight one.  The
            # chunks are joined _QUERY_ROWS rows at a time (joining the whole
            # level would double the sketch's memory at its peak), each
            # join sorted in place and read by sorted_percentiles, which is
            # np.percentile bit for bit
            chunks, step = self._levels[0], self._QUERY_ROWS
            parts = []
            for lo in range(0, self.n_rows, step):
                rows = np.concatenate([c[lo : lo + step] for c in chunks], axis=1)
                rows.sort(axis=1)
                parts.append(sorted_percentiles(rows, percentile))
            return self._rows_result(np.concatenate(parts, axis=-1))
        q = np.asarray(percentile, dtype=np.float64)
        if np.any((q < 0.0) | (q > 100.0)):
            raise ValueError("percentiles must be in [0, 100]")
        levels = [self._level(h) for h in range(len(self._levels))]
        values = np.concatenate(levels, axis=1)
        weights = np.concatenate(
            [
                np.full(level.shape[1], 1 << h, dtype=np.int64)
                for h, level in enumerate(levels)
            ]
        )
        order = np.argsort(values, axis=1, kind="stable")
        values = np.take_along_axis(values, order, axis=1)
        weights = weights[order]
        # each survivor stands for a block of `weight` consecutive ranks;
        # anchor it at the block's midpoint rank and interpolate linearly,
        # with the exact extremes pinned at ranks 0 and n-1
        mids = np.cumsum(weights, axis=1) - (weights + 1.0) / 2.0
        position = q / 100.0 * (self.n - 1)
        result = np.stack(
            [
                np.interp(
                    position,
                    np.concatenate([[-0.5], mid, [self.n - 0.5]]),
                    np.concatenate([[lo], row, [hi]]),
                )
                for mid, row, lo, hi in zip(mids, values, self._min, self._max)
            ],
            axis=-1,
        )
        return self._rows_result(result)

    @property
    def support(self) -> np.ndarray:
        """The retained support values, sorted per row, extremes pinned."""
        if self.n == 0:
            return np.empty(0, dtype=np.float64)
        values = np.sort(
            np.concatenate([c for level in self._levels for c in level], axis=1),
            axis=1,
            kind="stable",
        )
        values[:, 0] = np.minimum(values[:, 0], self._min)
        values[:, -1] = np.maximum(values[:, -1], self._max)
        return values if self._batched else values[0]

    @property
    def minimum(self):
        """Exact minimum (per row for a batched sketch)."""
        if self.n == 0:
            raise ValueError("no samples observed")
        return self._min if self._batched else float(self._min[0])

    @property
    def maximum(self):
        """Exact maximum (per row for a batched sketch)."""
        if self.n == 0:
            raise ValueError("no samples observed")
        return self._max if self._batched else float(self._max[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PercentileSketch(n={self.n}, rows={self.n_rows}, "
            f"capacity={self.capacity})"
        )


class BoundedTopK:
    """Bounded, mergeable pool of ``(value, key)`` candidates.

    Keeps at most ``capacity`` candidates sorted by value; over capacity it
    recompresses to evenly spaced order statistics of the pooled values
    (always pinning the exact minimum and maximum), carrying each retained
    value's key along.  The pool therefore spans the full value range with
    roughly quantile-spaced candidates, so :meth:`nearest` — the key whose
    value is closest to a target, e.g. a class-median laggard gap — is off
    by at most one quantile spacing (≈ ``n / capacity`` ranks).

    While the stream holds at most ``capacity`` candidates the pool is
    exact.  Keys are kept opaque (any picklable object; the analysis passes
    use process-iteration key tuples).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 4:
            raise ValueError("capacity must be >= 4")
        self.capacity = int(capacity)
        self.n = 0
        self._values = np.empty(0, dtype=np.float64)
        self._keys: List[object] = []

    # ------------------------------------------------------------------
    def update(self, values, keys: Sequence[object]) -> "BoundedTopK":
        """Fold a batch of candidates in (returns ``self``)."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        keys = list(keys)
        if arr.size != len(keys):
            raise ValueError(
                f"values and keys disagree ({arr.size} vs {len(keys)})"
            )
        if arr.size == 0:
            return self
        self.n += int(arr.size)
        self._absorb(np.concatenate([self._values, arr]), self._keys + keys)
        return self

    def merge(self, other: "BoundedTopK") -> "BoundedTopK":
        """New pool summarising the union of both candidate sets."""
        merged = BoundedTopK(min(self.capacity, other.capacity))
        merged.n = self.n + other.n
        merged._absorb(
            np.concatenate([self._values, other._values]),
            self._keys + other._keys,
        )
        return merged

    def _absorb(self, values: np.ndarray, keys: List[object]) -> None:
        order = np.argsort(values, kind="stable")
        self._values = values[order]
        self._keys = [keys[i] for i in order]
        if len(self._values) > self.capacity:
            idx = np.round(
                np.linspace(0, len(self._values) - 1, self.capacity)
            ).astype(np.int64)
            self._values = self._values[idx]
            self._keys = [self._keys[i] for i in idx]

    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """Retained candidate values, ascending."""
        return self._values

    @property
    def keys(self) -> List[object]:
        """Retained candidate keys, aligned with :attr:`values`."""
        return list(self._keys)

    def quantile(self, percentile) -> np.ndarray:
        """Approximate percentile(s) of the candidate values (0..100)."""
        if self.n == 0:
            raise ValueError("no candidates observed")
        return np.percentile(self._values, percentile)

    def nearest(self, target: float):
        """The key whose value is closest to ``target`` (``None`` if empty)."""
        if len(self._values) == 0:
            return None
        best = int(np.argmin(np.abs(self._values - float(target))))
        return self._keys[best]

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BoundedTopK(n={self.n}, retained={len(self._values)}, "
            f"capacity={self.capacity})"
        )
