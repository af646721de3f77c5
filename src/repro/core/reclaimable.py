"""Reclaimable time and idle-ratio metrics (§4.2).

Definitions, taken verbatim from the paper's text:

* **Reclaimable time** of one process-iteration: the sum over threads of the
  difference between the latest thread's arrival and each preceding thread's
  arrival, i.e. ``Σ_t (max − t_i)``.  The paper reports the *average amount of
  reclaimable time per iteration* over the whole data set.
* **Ratio of time spent idle**: "the ratio between the cumulative time spent
  idle by all threads that iteration and the latest arrival time that
  iteration multiplied by number of threads", i.e.
  ``Σ_t (max − t_i) / (n_threads × max)``.

The paper's reported absolute values for these two metrics cannot both hold
under this (textual) definition together with the reported medians; we
therefore report measured values under the definition above and preserve the
qualitative ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np


def reclaimable_time(arrivals_s) -> np.ndarray:
    """Reclaimable time of each group: ``Σ_t (max − t_i)`` along the last axis."""
    arr = np.asarray(arrivals_s, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    maxima = arr.max(axis=-1, keepdims=True)
    return np.sum(maxima - arr, axis=-1)


def reclaim_and_idle_ratio(arrivals_s) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`reclaimable_time` and :func:`idle_ratio` of each group from one
    maxima reduction, bit-identical to calling the two separately."""
    arr = np.asarray(arrivals_s, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    n = arr.shape[-1]
    maxima = arr.max(axis=-1, keepdims=True)
    reclaim = np.sum(maxima - arr, axis=-1)
    maxima = maxima[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(maxima > 0, reclaim / (n * np.where(maxima > 0, maxima, 1.0)), 0.0)
    return reclaim, ratio


def idle_ratio(arrivals_s) -> np.ndarray:
    """Idle ratio of each group: ``Σ_t (max − t_i) / (n × max)`` along the last axis."""
    return reclaim_and_idle_ratio(arrivals_s)[1]


@dataclass(frozen=True)
class ReclaimableSummary:
    """Aggregate reclaimable-time metrics for one application."""

    mean_reclaimable_s: float
    median_reclaimable_s: float
    max_reclaimable_s: float
    mean_idle_ratio: float
    mean_per_thread_idle_s: float
    n_groups: int
    n_threads: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "mean_reclaimable_ms": self.mean_reclaimable_s * 1e3,
            "median_reclaimable_ms": self.median_reclaimable_s * 1e3,
            "max_reclaimable_ms": self.max_reclaimable_s * 1e3,
            "mean_idle_ratio": self.mean_idle_ratio,
            "mean_per_thread_idle_ms": self.mean_per_thread_idle_s * 1e3,
            "n_groups": float(self.n_groups),
            "n_threads": float(self.n_threads),
        }

