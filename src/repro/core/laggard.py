"""Laggard-thread analysis and iteration classification (§4.2).

The paper flags a process-iteration as *containing a laggard* when its latest
thread arrives more than a threshold (1 ms) after the median thread of that
process-iteration, and reports what fraction of iterations contain one
(22.4 % for MiniFE, 4.8 % for post-warm-up MiniMD).  It also distinguishes
distribution *classes* by example histograms:

* ``NO_LAGGARD`` — tight, unimodal arrival pattern (Fig. 5a / 7b),
* ``LAGGARD`` — tight pattern plus one (or a few) extreme stragglers
  (Fig. 5b / 7c),
* ``WIDE`` — broad spread without a single dominant straggler (Fig. 7a — the
  first 19 MiniMD iterations — and every MiniQMC iteration, Fig. 9).

:func:`classify_iterations` reproduces that taxonomy so the figure generators
can pick representative examples programmatically instead of by hand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.aggregation import AggregationLevel, GroupedSamples, aggregate
from repro.core.timing import TimingDataset

#: The paper's laggard threshold: "approximately 5% slower than the ... median".
DEFAULT_LAGGARD_THRESHOLD_S = 1.0e-3

#: IQR above which an arrival pattern is considered "wide" rather than tight.
DEFAULT_WIDE_IQR_S = 2.0e-3


class IterationClass(enum.Enum):
    """Arrival-distribution classes observed in the paper's histograms."""

    NO_LAGGARD = "no_laggard"
    LAGGARD = "laggard"
    WIDE = "wide"


@dataclass
class LaggardAnalysis:
    """Per-group laggard metrics for one dataset.

    All arrays have one entry per process-iteration group (the Table-1
    granularity), in the order of ``keys``.
    """

    keys: List[Tuple[int, ...]]
    median_s: np.ndarray
    max_s: np.ndarray
    gap_s: np.ndarray
    iqr_s: np.ndarray
    has_laggard: np.ndarray
    classes: List[IterationClass]
    threshold_s: float
    wide_iqr_s: float

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self.keys)

    @property
    def laggard_fraction(self) -> float:
        """Fraction of process-iterations containing a laggard thread."""
        return float(np.mean(self.has_laggard))

    def class_fraction(self, iteration_class: IterationClass) -> float:
        """Fraction of groups classified as ``iteration_class``."""
        return float(
            np.mean([cls is iteration_class for cls in self.classes])
        )

    def class_counts(self) -> Dict[IterationClass, int]:
        counts = {cls: 0 for cls in IterationClass}
        for cls in self.classes:
            counts[cls] += 1
        return counts

    # ------------------------------------------------------------------
    def exemplar(self, iteration_class: IterationClass) -> Optional[Tuple[int, ...]]:
        """Key of the most typical group of a class (median gap within class).

        Used by the figure generators to pick the single process-iteration
        whose histogram illustrates the class (Figures 5, 7 and 9).
        """
        indices = [
            idx for idx, cls in enumerate(self.classes) if cls is iteration_class
        ]
        if not indices:
            return None
        gaps = self.gap_s[indices]
        target = np.median(gaps)
        best = indices[int(np.argmin(np.abs(gaps - target)))]
        return self.keys[best]

    def summary(self) -> "LaggardSummary":
        """Scalar summary used by the feasibility report."""
        return LaggardSummary(
            laggard_fraction=self.laggard_fraction,
            mean_gap_s=float(np.mean(self.gap_s)),
            max_gap_s=float(np.max(self.gap_s)) if self.n_groups else 0.0,
            mean_iqr_s=float(np.mean(self.iqr_s)),
            max_iqr_s=float(np.max(self.iqr_s)) if self.n_groups else 0.0,
            mean_median_s=float(np.mean(self.median_s)),
            threshold_s=self.threshold_s,
            class_fractions={
                cls.value: self.class_fraction(cls) for cls in IterationClass
            },
        )


@dataclass(frozen=True)
class LaggardSummary:
    """Headline laggard numbers for one application."""

    laggard_fraction: float
    mean_gap_s: float
    max_gap_s: float
    mean_iqr_s: float
    max_iqr_s: float
    mean_median_s: float
    threshold_s: float
    class_fractions: Dict[str, float]

    def as_dict(self) -> Dict[str, float]:
        payload = {
            "laggard_fraction": self.laggard_fraction,
            "mean_gap_ms": self.mean_gap_s * 1e3,
            "max_gap_ms": self.max_gap_s * 1e3,
            "mean_iqr_ms": self.mean_iqr_s * 1e3,
            "max_iqr_ms": self.max_iqr_s * 1e3,
            "mean_median_ms": self.mean_median_s * 1e3,
            "threshold_ms": self.threshold_s * 1e3,
        }
        payload.update(
            {f"class_{name}": value for name, value in self.class_fractions.items()}
        )
        return payload


def analyze_laggards(
    dataset_or_groups: TimingDataset | GroupedSamples,
    *,
    threshold_s: float = DEFAULT_LAGGARD_THRESHOLD_S,
    wide_iqr_s: float = DEFAULT_WIDE_IQR_S,
) -> LaggardAnalysis:
    """Compute per-process-iteration laggard metrics.

    Parameters
    ----------
    dataset_or_groups:
        A timing dataset (aggregated internally at the process-iteration
        level) or an already-grouped :class:`GroupedSamples`.
    threshold_s:
        Laggard threshold (latest − median), 1 ms in the paper.
    wide_iqr_s:
        IQR above which the group counts as ``WIDE`` regardless of laggards.
    """
    if threshold_s <= 0:
        raise ValueError("threshold_s must be positive")
    if isinstance(dataset_or_groups, TimingDataset):
        grouped = aggregate(dataset_or_groups, AggregationLevel.PROCESS_ITERATION)
    else:
        grouped = dataset_or_groups
    median, maximum, gap, iqr, has_laggard, classes = group_laggard_metrics(
        grouped.values, threshold_s=threshold_s, wide_iqr_s=wide_iqr_s
    )
    return LaggardAnalysis(
        keys=list(grouped.keys),
        median_s=median,
        max_s=maximum,
        gap_s=gap,
        iqr_s=iqr,
        has_laggard=has_laggard,
        classes=classes,
        threshold_s=threshold_s,
        wide_iqr_s=wide_iqr_s,
    )


def group_laggard_metrics(
    values: np.ndarray,
    *,
    threshold_s: float = DEFAULT_LAGGARD_THRESHOLD_S,
    wide_iqr_s: float = DEFAULT_WIDE_IQR_S,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[IterationClass]]:
    """Per-group laggard metrics of a ``(n_groups, n_threads)`` matrix.

    The dense reference of the streaming laggards pass, which reads the
    same statistics off each block's shared sort, bit for bit.  Returns
    ``(median, max, gap, iqr, has_laggard, classes)``.
    """
    median = np.median(values, axis=-1)
    maximum = np.max(values, axis=-1)
    gap = maximum - median
    q75, q25 = np.percentile(values, [75.0, 25.0], axis=-1)
    iqr = q75 - q25
    has_laggard = gap > threshold_s
    codes = group_laggard_codes(iqr, has_laggard, wide_iqr_s=wide_iqr_s)
    members = list(IterationClass)
    classes = [members[code] for code in codes.tolist()]
    return median, maximum, gap, iqr, has_laggard, classes


def group_laggard_codes(
    iqr: np.ndarray,
    has_laggard: np.ndarray,
    *,
    wide_iqr_s: float = DEFAULT_WIDE_IQR_S,
) -> np.ndarray:
    """Integer class codes of each group: ``list(IterationClass)`` indices.

    ``0`` = NO_LAGGARD, ``1`` = LAGGARD, ``2`` = WIDE — the vectorised form
    of the classification in :func:`group_laggard_metrics`, small enough to
    stream through the laggards analysis pass as an ``int8`` column.
    """
    codes = np.asarray(has_laggard, dtype=np.int8).copy()
    codes[np.asarray(iqr) > wide_iqr_s] = 2
    return codes


def classify_iterations(
    dataset: TimingDataset,
    *,
    threshold_s: float = DEFAULT_LAGGARD_THRESHOLD_S,
    wide_iqr_s: float = DEFAULT_WIDE_IQR_S,
) -> Dict[IterationClass, List[Tuple[int, ...]]]:
    """Group process-iteration keys by their arrival-distribution class."""
    analysis = analyze_laggards(
        dataset, threshold_s=threshold_s, wide_iqr_s=wide_iqr_s
    )
    result: Dict[IterationClass, List[Tuple[int, ...]]] = {
        cls: [] for cls in IterationClass
    }
    for key, cls in zip(analysis.keys, analysis.classes):
        result[cls].append(key)
    return result
