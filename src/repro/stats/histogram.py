"""Fixed-bin-width histograms.

Every histogram figure in the paper specifies an absolute bin width (10 µs
for the application-level Figure 3, 50 µs for the MiniFE/MiniMD
process-iteration examples, 1 ms for MiniQMC) rather than a bin count, so the
helper here is organised around a ``bin_width`` parameter and reports bins in
the same unit as the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np


@dataclass(frozen=True)
class FixedWidthHistogram:
    """A histogram with equal-width bins.

    Attributes
    ----------
    edges:
        Bin edges, length ``len(counts) + 1``.
    counts:
        Occupancy of each bin.
    bin_width:
        The (uniform) bin width.
    unit:
        Unit label of the edges.
    """

    edges: np.ndarray
    counts: np.ndarray
    bin_width: float
    unit: str = "s"

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def centers(self) -> np.ndarray:
        """Bin centres."""
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    @property
    def mode_center(self) -> float:
        """Centre of the most populated bin (the 'peak' the paper refers to)."""
        return float(self.centers[int(np.argmax(self.counts))])

    def density(self) -> np.ndarray:
        """Counts normalised to integrate to one."""
        total = self.counts.sum()
        if total == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / (total * self.bin_width)

    def spread(self) -> float:
        """Width of the occupied range (last non-empty bin end − first start)."""
        occupied = np.nonzero(self.counts)[0]
        if len(occupied) == 0:
            return 0.0
        return float(self.edges[occupied[-1] + 1] - self.edges[occupied[0]])

    def to_dict(self) -> Dict[str, list]:
        """JSON-friendly representation (used by the figure exporters)."""
        return {
            "edges": self.edges.tolist(),
            "counts": self.counts.tolist(),
            "bin_width": self.bin_width,
            "unit": self.unit,
        }

    def merge(self, other: "FixedWidthHistogram") -> "FixedWidthHistogram":
        """Union of two histograms on the same bin lattice (exact counts).

        Both histograms must share the bin width and have edges on the same
        absolute lattice (``fixed_width_histogram``'s default origin —
        ``floor(min / width) * width`` — guarantees this), so per-shard
        histograms of one campaign merge without any rebinning: counts are
        added on the common integer grid.
        """
        width = self.bin_width
        if abs(width - other.bin_width) > 1e-15 * max(width, 1.0):
            raise ValueError("histograms must share a bin width to merge")
        shift = (other.edges[0] - self.edges[0]) / width
        offset = int(round(shift))
        if abs(shift - offset) > 1e-6:
            raise ValueError("histogram edges are not on a common lattice")
        lo = min(0, offset)
        hi = max(self.n_bins, offset + other.n_bins)
        counts = np.zeros(hi - lo, dtype=self.counts.dtype)
        counts[-lo : -lo + self.n_bins] += self.counts
        counts[offset - lo : offset - lo + other.n_bins] += other.counts
        origin = min(self.edges[0], other.edges[0])
        edges = origin + width * np.arange(len(counts) + 1)
        return FixedWidthHistogram(
            edges=edges, counts=counts, bin_width=width, unit=self.unit
        )


def lattice_layout(lo: float, hi: float, bin_width: float):
    """Grid of the default (lattice-aligned) histogram covering ``[lo, hi]``.

    Returns ``(first_index, origin, n_bins)`` where ``first_index`` is the
    integer lattice index of the first bin (``floor(lo / width)``) and the
    grid is wide enough that every lattice index up to ``floor(hi / width)``
    fits.  A pure function of ``(lo, hi, bin_width)``, shared by
    :func:`fixed_width_histogram` and the streaming accumulator so both
    derive identical edges from identical extremes.
    """
    first = int(np.floor(lo / bin_width))
    origin = first * bin_width
    last = int(np.floor(hi / bin_width))
    n_bins = max(int(np.ceil((hi - origin) / bin_width)) + 1, last - first + 1)
    return first, origin, n_bins


def fixed_width_histogram(
    samples,
    bin_width: float,
    *,
    origin: Optional[float] = None,
    unit: str = "s",
    max_bins: int = 2_000_000,
) -> FixedWidthHistogram:
    """Histogram ``samples`` into bins of exactly ``bin_width``.

    Parameters
    ----------
    samples:
        1-D array of values.
    bin_width:
        Bin width in the same unit as ``samples``.
    origin:
        Left edge of the first bin; defaults to ``floor(min / width) * width``
        so edges land on multiples of the bin width.  With the default,
        every sample is binned by its *integer lattice index*
        (``floor(x / width)``) — a per-sample rule independent of the other
        samples, which is what makes histograms of disjoint sample subsets
        merge exactly into the pooled histogram (samples exactly on a bin
        boundary would otherwise straddle it depending on each subset's
        floating-point edge values).
    unit:
        Unit label carried into the result.
    max_bins:
        Guard against absurd bin counts from a mistaken unit.
    """
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot histogram an empty sample set")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    lo = float(arr.min())
    hi = float(arr.max())
    if origin is None:
        first, origin, n_bins = lattice_layout(lo, hi, bin_width)
        if n_bins > max_bins:
            raise ValueError(
                f"{n_bins} bins requested (width {bin_width}, range "
                f"{hi - origin:g}); check the unit of bin_width"
            )
        edges = origin + bin_width * np.arange(n_bins + 1)
        indices = np.floor(arr / bin_width).astype(np.int64) - first
        counts = np.bincount(indices, minlength=n_bins)
        return FixedWidthHistogram(
            edges=edges, counts=counts, bin_width=float(bin_width), unit=unit
        )
    if origin > lo:
        raise ValueError("origin must not exceed the smallest sample")
    n_bins = int(np.ceil((hi - origin) / bin_width)) + 1
    if n_bins > max_bins:
        raise ValueError(
            f"{n_bins} bins requested (width {bin_width}, range {hi - origin:g}); "
            "check the unit of bin_width"
        )
    edges = origin + bin_width * np.arange(n_bins + 1)
    counts, _ = np.histogram(arr, bins=edges)
    return FixedWidthHistogram(
        edges=edges, counts=counts, bin_width=float(bin_width), unit=unit
    )


def histogram_overlap(a: FixedWidthHistogram, b: FixedWidthHistogram) -> float:
    """Overlap coefficient (∈ [0, 1]) of two equal-width histograms.

    Used by tests to compare measured distributions between the detailed and
    vectorised execution paths.
    """
    if abs(a.bin_width - b.bin_width) > 1e-12:
        raise ValueError("histograms must share a bin width")
    lo = min(a.edges[0], b.edges[0])
    hi = max(a.edges[-1], b.edges[-1])
    width = a.bin_width
    n = int(round((hi - lo) / width))
    grid = np.zeros((2, n))
    for row, hist in enumerate((a, b)):
        start = int(round((hist.edges[0] - lo) / width))
        grid[row, start : start + hist.n_bins] = hist.density() * width
    return float(np.minimum(grid[0], grid[1]).sum())
