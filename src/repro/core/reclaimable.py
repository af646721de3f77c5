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

from repro.core.aggregation import AggregationLevel, GroupedSamples, aggregate
from repro.core.timing import TimingDataset


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


def summarize_reclaimable(
    dataset_or_groups: TimingDataset | GroupedSamples,
) -> ReclaimableSummary:
    """Average reclaimable time and idle ratio over all process-iterations."""
    if isinstance(dataset_or_groups, TimingDataset):
        grouped = aggregate(dataset_or_groups, AggregationLevel.PROCESS_ITERATION)
    else:
        grouped = dataset_or_groups
    reclaim, ratios = reclaim_and_idle_ratio(grouped.values)
    n_threads = grouped.group_size
    return ReclaimableSummary(
        mean_reclaimable_s=float(np.mean(reclaim)),
        median_reclaimable_s=float(np.median(reclaim)),
        max_reclaimable_s=float(np.max(reclaim)),
        mean_idle_ratio=float(np.mean(ratios)),
        mean_per_thread_idle_s=float(np.mean(reclaim) / n_threads),
        n_groups=grouped.n_groups,
        n_threads=n_threads,
    )


def per_iteration_reclaimable(dataset: TimingDataset) -> Tuple[np.ndarray, np.ndarray]:
    """Per-application-iteration mean reclaimable time and idle ratio.

    Averages the per-process-iteration metrics over trials and processes for
    each application iteration — the trajectory view used by the ablation
    benchmarks.
    """
    grouped = aggregate(dataset, AggregationLevel.PROCESS_ITERATION)
    reclaim, ratios = reclaim_and_idle_ratio(grouped.values)
    iterations = np.array([key[-1] for key in grouped.keys])
    unique = np.unique(iterations)
    mean_reclaim = np.array([reclaim[iterations == it].mean() for it in unique])
    mean_ratio = np.array([ratios[iterations == it].mean() for it in unique])
    return mean_reclaim, mean_ratio
