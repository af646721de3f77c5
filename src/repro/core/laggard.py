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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


#: each class's integer code (its ``list(IterationClass)`` index)
CLASS_CODES = {cls: code for code, cls in enumerate(IterationClass)}


@dataclass
class LaggardAnalysis:
    """Per-group laggard metrics for one dataset.

    All arrays have one entry per process-iteration group (the Table-1
    granularity), in key order.  The keys are held as runs, not tuples:
    run ``r`` is ``slice_sizes[r]`` consecutive groups whose keys start with
    ``slice_keys[r]`` (a (trial, process) slice), and ``iterations`` holds
    every group's last key element; :attr:`keys` builds the tuples on
    demand.  ``codes`` are the groups' :data:`CLASS_CODES`.  The gaps and
    laggard flags are derived from the maxima and medians when read.
    """

    slice_keys: np.ndarray
    slice_sizes: np.ndarray
    iterations: np.ndarray
    median_s: np.ndarray
    max_s: np.ndarray
    iqr_s: np.ndarray
    codes: np.ndarray
    threshold_s: float
    wide_iqr_s: float

    @classmethod
    def from_keys(cls, keys: Sequence[Tuple[int, ...]], **fields) -> "LaggardAnalysis":
        """The analysis of groups keyed ``(..., iteration)`` tuples, the key
        prefixes run-length encoded."""
        table = np.asarray(keys, dtype=np.int64).reshape(len(keys), -1)
        prefixes = table[:, :-1]
        changes = np.any(prefixes[1:] != prefixes[:-1], axis=1)
        starts = np.flatnonzero(np.r_[len(table) > 0, changes])
        return cls(
            slice_keys=prefixes[starts],
            slice_sizes=np.diff(np.r_[starts, len(table)]),
            iterations=table[:, -1].copy(),
            **fields,
        )

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self.iterations)

    @property
    def gap_s(self) -> np.ndarray:
        """Each group's latest arrival minus its median."""
        return self.max_s - self.median_s

    @property
    def has_laggard(self) -> np.ndarray:
        """Whether each group's gap exceeds the laggard threshold."""
        return self.gap_s > self.threshold_s

    @property
    def keys(self) -> List[Tuple[int, ...]]:
        """Every group's key tuple, built on demand."""
        prefixes = np.repeat(self.slice_keys, self.slice_sizes, axis=0)
        table = np.column_stack([prefixes, self.iterations])
        return [tuple(key) for key in table.tolist()]

    def key(self, index: int) -> Tuple[int, ...]:
        """Key tuple of group ``index``."""
        run = int(np.searchsorted(np.cumsum(self.slice_sizes), index, side="right"))
        return tuple(self.slice_keys[run].tolist()) + (int(self.iterations[index]),)

    @property
    def classes(self) -> List[IterationClass]:
        """Every group's class, built on demand from ``codes``."""
        members = list(IterationClass)
        return [members[code] for code in self.codes.tolist()]

    @property
    def laggard_fraction(self) -> float:
        """Fraction of process-iterations containing a laggard thread."""
        return float(np.mean(self.has_laggard))

    def class_fraction(self, iteration_class: IterationClass) -> float:
        """Fraction of groups classified as ``iteration_class``."""
        return float(np.mean(self.codes == CLASS_CODES[iteration_class]))

    def class_counts(self) -> Dict[IterationClass, int]:
        counts = np.bincount(self.codes, minlength=len(IterationClass))
        return {cls: int(counts[code]) for cls, code in CLASS_CODES.items()}

    # ------------------------------------------------------------------
    def exemplar(self, iteration_class: IterationClass) -> Optional[Tuple[int, ...]]:
        """Key of the most typical group of a class (median gap within class).

        Used by the figure generators to pick the single process-iteration
        whose histogram illustrates the class (Figures 5, 7 and 9).
        """
        indices = np.flatnonzero(self.codes == CLASS_CODES[iteration_class])
        if not len(indices):
            return None
        gaps = self.gap_s[indices]
        target = np.median(gaps)
        return self.key(int(indices[int(np.argmin(np.abs(gaps - target)))]))

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
    median, maximum, _, iqr, _, codes = group_laggard_metrics(
        grouped.values, threshold_s=threshold_s, wide_iqr_s=wide_iqr_s
    )
    return LaggardAnalysis.from_keys(
        grouped.keys,
        median_s=median,
        max_s=maximum,
        iqr_s=iqr,
        codes=codes,
        threshold_s=threshold_s,
        wide_iqr_s=wide_iqr_s,
    )


def group_laggard_metrics(
    values: np.ndarray,
    *,
    threshold_s: float = DEFAULT_LAGGARD_THRESHOLD_S,
    wide_iqr_s: float = DEFAULT_WIDE_IQR_S,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-group laggard metrics of a ``(n_groups, n_threads)`` matrix.

    The dense reference of the streaming laggards pass, which reads the
    same statistics off each block's shared sort, bit for bit.  Returns
    ``(median, max, gap, iqr, has_laggard, codes)``, ``codes`` the groups'
    :data:`CLASS_CODES`.
    """
    median = np.median(values, axis=-1)
    maximum = np.max(values, axis=-1)
    gap = maximum - median
    q75, q25 = np.percentile(values, [75.0, 25.0], axis=-1)
    iqr = q75 - q25
    has_laggard = gap > threshold_s
    codes = group_laggard_codes(iqr, has_laggard, wide_iqr_s=wide_iqr_s)
    return median, maximum, gap, iqr, has_laggard, codes


def group_laggard_codes(
    iqr: np.ndarray,
    has_laggard: np.ndarray,
    *,
    wide_iqr_s: float = DEFAULT_WIDE_IQR_S,
) -> np.ndarray:
    """Integer class codes of each group: its :data:`CLASS_CODES`.

    ``0`` = NO_LAGGARD, ``1`` = LAGGARD, ``2`` = WIDE — the vectorised
    classification, small enough to keep as an ``int8`` per group.
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
