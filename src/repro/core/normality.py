"""Normality analysis at the paper's three aggregation levels (§4.1, Table 1).

:class:`NormalityStudy` is the per-application driver: it aggregates a timing
dataset at each level, runs the three-test battery
(:class:`repro.stats.battery.NormalityBattery`) and exposes the results the
way the paper reports them:

* application level — a single reject / fail-to-reject verdict per test;
* application-iteration level — how many of the 200 iterations pass each test;
* process-iteration level — the Table 1 percentages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.aggregation import AggregationLevel, aggregate
from repro.core.timing import TimingDataset
from repro.stats.battery import TEST_LABELS, TEST_NAMES, NormalityBattery, NormalityReport


def stratified_subsample(values: np.ndarray, limit: int) -> np.ndarray:
    """Deterministic stratified subsample along the last axis.

    Sorts, then takes ``limit`` evenly strided order statistics — therefore
    independent of the input order, which is what makes the application-level
    normality verdict identical between the in-memory path (dense row order)
    and the shard-streaming path (shards concatenated in merge order).
    """
    n = values.shape[-1]
    if n <= limit:
        return values
    return np.sort(values, axis=-1)[..., stratified_ranks(n, limit)]


def stratified_ranks(n: int, limit: int) -> np.ndarray:
    """The ``limit`` evenly strided ranks out of ``n`` sorted samples that
    :func:`stratified_subsample` keeps."""
    return np.floor(np.arange(limit) * (n / limit)).astype(np.int64)


@dataclass
class LevelResult:
    """Battery outcome at one aggregation level."""

    level: AggregationLevel
    report: NormalityReport
    keys: List[tuple]

    @property
    def pass_rates(self) -> Dict[str, float]:
        return self.report.pass_rates()

    def passing_keys(self, test: str) -> List[tuple]:
        """Keys of the groups that pass ``test`` (e.g. the eight MiniQMC
        application iterations that pass D'Agostino in the paper)."""
        mask = self.report.outcomes[test].passed
        return [key for key, ok in zip(self.keys, np.atleast_1d(mask)) if ok]

    def n_passing(self, test: str) -> int:
        return int(np.sum(self.report.outcomes[test].passed))


class NormalityStudy:
    """Run the §4.1 normality analysis on one application's dataset.

    Parameters
    ----------
    dataset:
        The application's timing dataset.
    alpha:
        Significance level (5 % in the paper).
    max_application_samples:
        The application-level group can contain hundreds of thousands of
        samples, and an application-iteration group pools every trial's and
        process's threads; Shapiro–Wilk's approximation is only defined to
        n = 5000, so both levels test a deterministic stratified subsample
        of at most this many values per group (the paper's conclusion —
        rejection — is insensitive to this: rejection only becomes *easier*
        with more samples).
    """

    def __init__(
        self,
        dataset: TimingDataset,
        *,
        alpha: float = 0.05,
        max_application_samples: int = 5000,
    ) -> None:
        self.dataset = dataset
        self.alpha = alpha
        self.max_application_samples = max_application_samples
        self.battery = NormalityBattery(alpha=alpha)
        self._results: Dict[AggregationLevel, LevelResult] = {}

    # ------------------------------------------------------------------
    def _subsample(self, values: np.ndarray, limit: int) -> np.ndarray:
        """Deterministic stratified subsample along the last axis."""
        return stratified_subsample(values, limit)

    def level_result(self, level: AggregationLevel | str) -> LevelResult:
        """Battery outcome at ``level`` (computed lazily, cached)."""
        if isinstance(level, str):
            level = AggregationLevel.from_name(level)
        if level not in self._results:
            grouped = aggregate(self.dataset, level)
            values = grouped.values
            if level is not AggregationLevel.PROCESS_ITERATION:
                values = self._subsample(values, self.max_application_samples)
            report = self.battery.run(values)
            self._results[level] = LevelResult(
                level=level, report=report, keys=grouped.keys
            )
        return self._results[level]

    # ------------------------------------------------------------------
    # paper-facing accessors
    # ------------------------------------------------------------------
    def application_rejects_normality(self) -> bool:
        """§4.1: does every test reject normality at the application level?"""
        return self.level_result(AggregationLevel.APPLICATION).report.rejected_all()

    def application_iteration_pass_counts(self) -> Dict[str, int]:
        """Number of application iterations passing each test."""
        result = self.level_result(AggregationLevel.APPLICATION_ITERATION)
        return {name: result.n_passing(name) for name in TEST_NAMES}

    def process_iteration_pass_rates(self) -> Dict[str, float]:
        """Fraction of process-iterations passing each test (Table 1 row)."""
        result = self.level_result(AggregationLevel.PROCESS_ITERATION)
        return result.pass_rates

    def table1_row(self, label: Optional[str] = None) -> Dict[str, object]:
        """One row of Table 1 (percentages)."""
        result = self.level_result(AggregationLevel.PROCESS_ITERATION)
        return result.report.table_row(label or self.dataset.application)

    def summary(self) -> str:
        """Readable multi-level summary."""
        lines = [f"normality study for {self.dataset.application!r} (alpha={self.alpha})"]
        app = self.level_result(AggregationLevel.APPLICATION)
        verdict = "rejected" if app.report.rejected_all() else "not uniformly rejected"
        lines.append(f"  application level: normality {verdict}")
        app_iter = self.level_result(AggregationLevel.APPLICATION_ITERATION)
        for name in TEST_NAMES:
            lines.append(
                f"  application-iteration level, {TEST_LABELS[name]}: "
                f"{app_iter.n_passing(name)}/{app_iter.report.n_groups} iterations pass"
            )
        proc = self.level_result(AggregationLevel.PROCESS_ITERATION)
        for name in TEST_NAMES:
            lines.append(
                f"  process-iteration level, {TEST_LABELS[name]}: "
                f"{100 * proc.pass_rates[name]:.1f}% pass"
            )
        return "\n".join(lines)
