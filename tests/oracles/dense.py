"""Dense reference analyses: each §4 product from a whole dataset's
:func:`~repro.core.aggregation.aggregate` grouping at once.

The program computes every product once, in the mergeable passes of
:mod:`repro.analysis.passes`, which fold column blocks and never build the
group matrices.  The tests check each pass against the straightforward
computation here, bit for bit, for any shard decomposition and order:

* :func:`per_iteration_samples` — the pooled application-iteration rows
  behind the percentile trajectories (Figures 4/6/8);
* :class:`NormalityStudy` — the three-test battery at the three §4.1
  levels (Table 1);
* :func:`analyze_laggards` / :func:`group_laggard_metrics` — the §4.2
  laggard metrics and classes;
* :func:`summarize_reclaimable` — the §4.2 reclaimable time and idle
  ratio.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.aggregation import AggregationLevel, aggregate
from repro.core.laggard import (
    DEFAULT_LAGGARD_THRESHOLD_S,
    DEFAULT_WIDE_IQR_S,
    LaggardAnalysis,
    group_laggard_codes,
)
from repro.core.reclaimable import ReclaimableSummary, reclaim_and_idle_ratio
from repro.core.timing import TimingDataset
from repro.stats.battery import TEST_NAMES, NormalityBattery, NormalityReport
from repro.stats.selection import stratified_subsample


def per_iteration_samples(dataset: TimingDataset) -> np.ndarray:
    """Matrix ``(n_iterations, samples_per_iteration)`` (percentile-plot input)."""
    return aggregate(dataset, AggregationLevel.APPLICATION_ITERATION).values


class NormalityStudy:
    """The §4.1 normality battery on one dataset's three dense groupings.

    The application and application-iteration groups are tested on a
    stratified subsample of at most ``max_application_samples`` values
    (Shapiro–Wilk's approximation is defined to n = 5000).
    """

    def __init__(
        self,
        dataset: TimingDataset,
        *,
        alpha: float = 0.05,
        max_application_samples: int = 5000,
    ) -> None:
        self.dataset = dataset
        self.max_application_samples = max_application_samples
        self.battery = NormalityBattery(alpha=alpha)
        self._reports: Dict[AggregationLevel, NormalityReport] = {}

    def level_result(self, level: AggregationLevel) -> NormalityReport:
        """Battery outcome at ``level`` (computed once)."""
        if level not in self._reports:
            values = aggregate(self.dataset, level).values
            if level is not AggregationLevel.PROCESS_ITERATION:
                values = stratified_subsample(values, self.max_application_samples)
            self._reports[level] = self.battery.run(values)
        return self._reports[level]

    def application_rejects_normality(self) -> bool:
        """Does every test reject normality at the application level?"""
        return self.level_result(AggregationLevel.APPLICATION).rejected_all()

    def application_iteration_pass_counts(self) -> Dict[str, int]:
        """Number of application iterations passing each test."""
        report = self.level_result(AggregationLevel.APPLICATION_ITERATION)
        return {name: int(np.sum(report.outcomes[name].passed)) for name in TEST_NAMES}

    def process_iteration_pass_rates(self) -> Dict[str, float]:
        """Fraction of process-iterations passing each test (Table 1 row)."""
        return self.level_result(AggregationLevel.PROCESS_ITERATION).pass_rates()


def group_laggard_metrics(
    values: np.ndarray,
    *,
    threshold_s: float = DEFAULT_LAGGARD_THRESHOLD_S,
    wide_iqr_s: float = DEFAULT_WIDE_IQR_S,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-group laggard metrics of a ``(n_groups, n_threads)`` matrix:
    ``(median, max, gap, iqr, has_laggard, codes)``, ``codes`` the groups'
    :data:`~repro.core.laggard.CLASS_CODES`."""
    median = np.median(values, axis=-1)
    maximum = np.max(values, axis=-1)
    gap = maximum - median
    q75, q25 = np.percentile(values, [75.0, 25.0], axis=-1)
    iqr = q75 - q25
    has_laggard = gap > threshold_s
    codes = group_laggard_codes(iqr, has_laggard, wide_iqr_s=wide_iqr_s)
    return median, maximum, gap, iqr, has_laggard, codes


def analyze_laggards(
    dataset: TimingDataset,
    *,
    threshold_s: float = DEFAULT_LAGGARD_THRESHOLD_S,
    wide_iqr_s: float = DEFAULT_WIDE_IQR_S,
) -> LaggardAnalysis:
    """Per-process-iteration laggard metrics of the dense grouping."""
    grouped = aggregate(dataset, AggregationLevel.PROCESS_ITERATION)
    median, maximum, _, iqr, _, codes = group_laggard_metrics(
        grouped.values, threshold_s=threshold_s, wide_iqr_s=wide_iqr_s
    )
    # the (trial, process) key prefixes, run-length encoded
    table = np.asarray(grouped.keys, dtype=np.int64)
    prefixes = table[:, :-1]
    changes = np.any(prefixes[1:] != prefixes[:-1], axis=1)
    starts = np.flatnonzero(np.r_[len(table) > 0, changes])
    return LaggardAnalysis(
        slice_keys=prefixes[starts],
        slice_sizes=np.diff(np.r_[starts, len(table)]),
        iterations=table[:, -1].copy(),
        median_s=median,
        max_s=maximum,
        iqr_s=iqr,
        codes=codes,
        threshold_s=threshold_s,
        wide_iqr_s=wide_iqr_s,
    )


def summarize_reclaimable(dataset: TimingDataset) -> ReclaimableSummary:
    """Average reclaimable time and idle ratio over all process-iterations."""
    grouped = aggregate(dataset, AggregationLevel.PROCESS_ITERATION)
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
