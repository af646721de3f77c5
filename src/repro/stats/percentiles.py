"""Percentile utilities behind the paper's percentile plots (Figures 4, 6, 8).

The figures plot, for every application iteration, the {5, 25, 50, 75, 95}th
percentiles of the 3840 thread-arrival samples collected for that iteration
(48 threads × 8 processes × 10 trials).  :func:`percentile_table` produces
exactly that matrix; :class:`PercentileSeries` wraps it with convenience
accessors for the analysis layer (IQR trajectories, section means, ...).

:func:`sorted_percentiles` and :func:`sorted_median` read the same order
statistics off rows that are already sorted, bit for bit equal to
``np.percentile`` / ``np.median`` of the unsorted rows: the analysis passes
sort each block once and derive every order statistic from that sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

#: Percentiles used by the paper's plots.
DEFAULT_PERCENTILES: Tuple[float, ...] = (5.0, 25.0, 50.0, 75.0, 95.0)


def iqr(x, axis: int = -1) -> np.ndarray:
    """Inter-quartile range (75th − 25th percentile) along ``axis``."""
    arr = np.asarray(x, dtype=np.float64)
    q75, q25 = np.percentile(arr, [75.0, 25.0], axis=axis)
    return q75 - q25


def sorted_percentiles(sorted_x, q) -> np.ndarray:
    """``np.percentile(x, q, axis=-1)`` given ``sorted_x = np.sort(x, axis=-1)``.

    The arithmetic is numpy's ``linear`` method after its partition: the
    virtual index ``(n - 1) q / 100``, its floor and ceiling clamped to the
    row, and the two-sided lerp that switches to ``b - (b - a)(1 - t)`` at
    ``t >= 0.5``.  A row whose last element is NaN gives NaN, as in numpy.
    The result has numpy's shape: ``q``'s shape followed by the row shape.
    """
    arr = np.asarray(sorted_x)
    n = arr.shape[-1]
    virtual = (n - 1) * np.true_divide(q, 100)
    floor = np.floor(virtual)
    # numpy's clamps: -1 (the last element) past the end, 0 before the start
    lower, upper = (
        np.where(virtual >= n - 1, -1, np.where(virtual < 0, 0, index)).astype(np.intp)
        for index in (floor, floor + 1)
    )
    gamma = np.reshape(virtual - lower, np.shape(virtual) + (1,) * (arr.ndim - 1))
    rows = np.moveaxis(arr, -1, 0)
    a, b = rows[lower], rows[upper]
    diff = b - a
    result = np.asarray(a + diff * gamma)
    np.subtract(b, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    last = arr[..., -1]
    np.copyto(result, last, where=np.isnan(last))
    return result[()] if result.ndim == 0 else result


def sorted_median(sorted_x) -> np.ndarray:
    """``np.median(x, axis=-1)`` given ``sorted_x = np.sort(x, axis=-1)``.

    The middle element, or the mean ``(a + b) / 2`` of the two middle
    elements, as numpy computes it after its partition; NaN rows give NaN.
    """
    arr = np.asarray(sorted_x)
    half = arr.shape[-1] // 2
    if arr.shape[-1] % 2:
        result = np.array(arr[..., half], dtype=np.float64)
    else:
        result = np.asarray((arr[..., half - 1] + arr[..., half]) / 2)
    last = arr[..., -1]
    np.copyto(result, last, where=np.isnan(last))
    return result[()] if result.ndim == 0 else result


def percentile_table(
    x, percentiles: Sequence[float] = DEFAULT_PERCENTILES, axis: int = -1
) -> np.ndarray:
    """Percentiles of ``x`` along ``axis``; result shape ``(len(percentiles), ...)``."""
    arr = np.asarray(x, dtype=np.float64)
    return np.percentile(arr, list(percentiles), axis=axis)


@dataclass
class PercentileSeries:
    """Per-iteration percentile trajectories for one application.

    Attributes
    ----------
    iterations:
        Application-iteration indices (x axis of Figures 4/6/8).
    percentiles:
        The percentile levels, e.g. ``(5, 25, 50, 75, 95)``.
    values:
        Matrix of shape ``(len(percentiles), len(iterations))`` in the same
        time unit as the input samples.
    unit:
        Unit label for reports (default milliseconds, as in the figures).
    """

    iterations: np.ndarray
    percentiles: Tuple[float, ...]
    values: np.ndarray
    unit: str = "ms"

    def __post_init__(self) -> None:
        self.iterations = np.asarray(self.iterations)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.percentiles), len(self.iterations)):
            raise ValueError(
                "values must have shape (n_percentiles, n_iterations); got "
                f"{self.values.shape}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_samples(
        cls,
        samples_by_iteration: np.ndarray,
        percentiles: Sequence[float] = DEFAULT_PERCENTILES,
        unit: str = "ms",
    ) -> "PercentileSeries":
        """Build a series from a ``(n_iterations, n_samples)`` matrix."""
        matrix = np.asarray(samples_by_iteration, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("samples_by_iteration must be 2-D")
        values = percentile_table(matrix, percentiles, axis=-1)
        return cls(
            iterations=np.arange(matrix.shape[0]),
            percentiles=tuple(percentiles),
            values=values,
            unit=unit,
        )

    # ------------------------------------------------------------------
    def series(self, percentile: float) -> np.ndarray:
        """Trajectory of one percentile level across iterations."""
        for idx, level in enumerate(self.percentiles):
            if abs(level - percentile) < 1e-9:
                return self.values[idx]
        raise KeyError(f"percentile {percentile} not in {self.percentiles}")

    @property
    def median(self) -> np.ndarray:
        return self.series(50.0)

    @property
    def iqr(self) -> np.ndarray:
        """Per-iteration inter-quartile range."""
        return self.series(75.0) - self.series(25.0)

    def iqr_summary(self, iteration_slice: slice = slice(None)) -> Dict[str, float]:
        """Mean and maximum IQR over a range of iterations (paper §4.2)."""
        window = self.iqr[iteration_slice]
        return {"mean": float(window.mean()), "max": float(window.max())}

    def mean_median(self, iteration_slice: slice = slice(None)) -> float:
        """Mean of the per-iteration medians (the paper's 'mean median')."""
        return float(self.median[iteration_slice].mean())

    def skew_direction(self) -> str:
        """'early' when low percentiles sit further from the median than high ones.

        This is the observation the paper makes for MiniFE ("the 5th and 25th
        percentiles are generally further from the median than the 95th and
        75th"), indicating frequent early arrivals.
        """
        low_gap = float(np.mean(self.median - self.series(5.0)))
        high_gap = float(np.mean(self.series(95.0) - self.median))
        if low_gap > high_gap * 1.05:
            return "early"
        if high_gap > low_gap * 1.05:
            return "late"
        return "symmetric"

    def to_dict(self) -> Dict[str, list]:
        """JSON-friendly representation (used by the figure exporters)."""
        payload = {"iteration": self.iterations.tolist(), "unit": self.unit}
        for idx, level in enumerate(self.percentiles):
            payload[f"p{level:g}"] = self.values[idx].tolist()
        return payload
