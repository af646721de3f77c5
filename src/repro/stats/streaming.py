"""A one-pass, mergeable histogram for sharded campaign analysis.

The streaming analysis engine (:mod:`repro.analysis`) folds campaign shards
into per-pass accumulators instead of materialising the merged
:class:`~repro.core.timing.TimingDataset`.  The histogram pass needs a
*mergeable* summary: one computed per shard and combined in any order
without revisiting the samples.  :class:`StreamingHistogram` keeps
fixed-bin-width counts on the absolute lattice ``k * bin_width``.  Because
every :func:`~repro.stats.histogram.fixed_width_histogram` aligns its
origin to that lattice (``origin = floor(min / width) * width``),
per-shard histograms merge *exactly*: bin counts are integers on a shared
grid, and the finalised histogram reproduces the edges the merged-dataset
call would have produced (the exact minimum and maximum are tracked
alongside the counts).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.stats.histogram import (
    FixedWidthHistogram,
    fixed_width_histogram,
    lattice_layout,
)


class StreamingHistogram:
    """Mergeable fixed-bin-width histogram accumulator.

    Per-batch histograms live on the absolute lattice ``k * bin_width``, and
    :func:`~repro.stats.histogram.fixed_width_histogram` bins every sample
    by its integer lattice index (``floor(x / width)``) — a per-sample rule
    independent of the rest of the batch — so they combine *exactly*
    through :meth:`FixedWidthHistogram.merge`: integer counts added on a
    shared grid, regardless of how the samples were batched or in which
    order the partials merge.  The exact minimum and maximum samples are
    tracked alongside so :meth:`finalize` can rebuild the edges with the
    very :func:`~repro.stats.histogram.lattice_layout` the merged-dataset
    path uses.
    """

    __slots__ = ("bin_width", "unit", "n", "minimum", "maximum", "_hist")

    def __init__(self, bin_width: float, *, unit: str = "s") -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = float(bin_width)
        self.unit = unit
        self.n = 0
        self.minimum = np.inf
        self.maximum = -np.inf
        #: running count grid (None until the first update)
        self._hist: Optional[FixedWidthHistogram] = None

    # ------------------------------------------------------------------
    def update(self, samples) -> "StreamingHistogram":
        """Fold a batch of samples in (returns ``self``)."""
        arr = np.asarray(samples, dtype=np.float64).ravel()
        if arr.size == 0:
            return self
        hist = fixed_width_histogram(arr, self.bin_width, unit=self.unit)
        self._hist = hist if self._hist is None else self._hist.merge(hist)
        self.n += int(arr.size)
        self.minimum = min(self.minimum, float(arr.min()))
        self.maximum = max(self.maximum, float(arr.max()))
        return self

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """New accumulator holding the union of both count grids."""
        if abs(self.bin_width - other.bin_width) > 1e-15 * max(self.bin_width, 1.0):
            raise ValueError("cannot merge streaming histograms of unequal bin width")
        merged = StreamingHistogram(self.bin_width, unit=self.unit)
        grids = [part._hist for part in (self, other) if part._hist is not None]
        if len(grids) == 2:
            merged._hist = grids[0].merge(grids[1])
        elif grids:
            merged._hist = grids[0]
        merged.n = self.n + other.n
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged

    # ------------------------------------------------------------------
    def finalize(self) -> FixedWidthHistogram:
        """The merged histogram, with the merged-dataset path's edges.

        Edges are re-derived from the tracked global minimum/maximum with the
        same origin/bin-count formula :func:`fixed_width_histogram` uses, so
        the result is indistinguishable from histogramming the pooled
        samples directly.
        """
        if self.n == 0 or self._hist is None:
            raise ValueError("cannot finalize an empty streaming histogram")
        width = self.bin_width
        _, origin, n_bins = lattice_layout(self.minimum, self.maximum, width)
        edges = origin + width * np.arange(n_bins + 1)
        counts = np.zeros(n_bins, dtype=np.int64)
        start = int(round((self._hist.edges[0] - origin) / width))
        stop = start + self._hist.n_bins
        # per-batch +1 bin-count slack can leave trailing (necessarily
        # empty) grid cells beyond the global edge range — trim them
        usable = min(stop, n_bins)
        accumulated = np.asarray(self._hist.counts, dtype=np.int64)
        if start < 0 or np.any(accumulated[max(usable - start, 0) :] != 0):
            raise AssertionError("streaming histogram counts fell off the grid")
        counts[start:usable] = accumulated[: usable - start]
        return FixedWidthHistogram(
            edges=edges, counts=counts, bin_width=width, unit=self.unit
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bins = self._hist.n_bins if self._hist is not None else 0
        return (
            f"StreamingHistogram(bin_width={self.bin_width}, n={self.n}, "
            f"bins={bins})"
        )
