"""The three-test normality battery used throughout the paper's §4.1.

Table 1 reports, per application, the percentage of process-iteration groups
that *pass* (fail to reject) each of D'Agostino, Shapiro–Wilk and
Anderson–Darling at 5 % significance.  :class:`NormalityBattery` runs the
three batch tests on a ``(groups, n)`` matrix and returns a
:class:`NormalityReport` that knows how to express itself as a Table-1 row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.stats.anderson import anderson_darling
from repro.stats.dagostino import dagostino_k2
from repro.stats.moments import skewness_kurtosis
from repro.stats.shapiro import shapiro_wilk

#: Canonical test names, in the order Table 1 lists them.
TEST_NAMES: Tuple[str, str, str] = ("dagostino", "shapiro_wilk", "anderson_darling")

#: Human-readable labels matching the paper's table.
TEST_LABELS: Dict[str, str] = {
    "dagostino": "D'Agostino",
    "shapiro_wilk": "Shapiro-Wilk",
    "anderson_darling": "Anderson-Darling",
}


@dataclass(frozen=True)
class TestOutcome:
    """Result of one test applied to a batch of groups."""

    name: str
    statistic: np.ndarray
    pvalue: np.ndarray
    passed: np.ndarray

    @property
    def pass_rate(self) -> float:
        """Fraction of groups that failed to reject normality."""
        return float(np.mean(self.passed))

    @property
    def n_groups(self) -> int:
        return int(np.size(self.passed))


@dataclass
class NormalityReport:
    """Aggregated outcome of the battery on one batch of groups."""

    alpha: float
    n_groups: int
    group_size: int
    outcomes: Dict[str, TestOutcome] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def pass_rate(self, test: str) -> float:
        """Pass rate of one test (``'dagostino'`` etc.)."""
        return self.outcomes[test].pass_rate

    def pass_rates(self) -> Dict[str, float]:
        """Pass rate of every test, keyed by canonical name."""
        return {name: outcome.pass_rate for name, outcome in self.outcomes.items()}

    def rejected_all(self) -> bool:
        """True when every test rejects normality for every group.

        This is the §4.1 application-level / application-iteration-level
        outcome for MiniFE and MiniMD ("results ... led to rejecting the null
        hypothesis").
        """
        return all(outcome.pass_rate == 0.0 for outcome in self.outcomes.values())

    def table_row(self, label: str = "") -> Dict[str, object]:
        """One row of Table 1: percentage of groups passing each test."""
        row: Dict[str, object] = {"application": label}
        for name in TEST_NAMES:
            row[TEST_LABELS[name]] = 100.0 * self.pass_rate(name)
        return row

    def summary(self) -> str:
        """Readable multi-line summary."""
        lines = [
            f"normality battery: {self.n_groups} group(s) of {self.group_size} "
            f"samples, alpha={self.alpha}"
        ]
        for name in TEST_NAMES:
            outcome = self.outcomes[name]
            lines.append(
                f"  {TEST_LABELS[name]:<17}: {100 * outcome.pass_rate:6.2f}% pass"
            )
        return "\n".join(lines)


class NormalityBattery:
    """Runs the paper's three normality tests on batches of sample groups.

    Parameters
    ----------
    alpha:
        Significance level; the paper uses 5 %.
    tests:
        Subset of :data:`TEST_NAMES` to run (all three by default).
    """

    def __init__(
        self, alpha: float = 0.05, tests: Optional[List[str]] = None
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self.tests = list(tests) if tests is not None else list(TEST_NAMES)
        unknown = set(self.tests) - set(TEST_NAMES)
        if unknown:
            raise ValueError(f"unknown tests: {sorted(unknown)}")

    # ------------------------------------------------------------------
    def run(self, groups, *, sorted_x=None) -> NormalityReport:
        """Run the battery.

        Parameters
        ----------
        groups:
            Array of shape ``(n_groups, n)`` (or ``(n,)`` for a single group)
            of samples; every row is tested independently.
        sorted_x:
            Optional ``np.sort(groups, axis=-1)`` the caller already holds
            (e.g. a block's shared sorted cube); sorted here when omitted.

        The three tests share their intermediates: one deviations pass
        (:func:`~repro.stats.moments.skewness_kurtosis`) supplies skewness
        and kurtosis to D'Agostino, and one sort of the sample matrix is
        shared by Shapiro–Wilk and Anderson–Darling.  Each shared
        intermediate is bit-identical to what the test would compute on its
        own, so every outcome equals that of the test function called
        directly on ``groups``.
        """
        arr = np.asarray(groups, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ValueError("groups must be 1-D or 2-D")
        if arr.shape[-1] < 8:
            raise ValueError(
                f"the battery requires at least 8 samples per group, got {arr.shape[-1]}"
            )
        b1 = b2 = None
        if "dagostino" in self.tests:
            b1, b2 = skewness_kurtosis(arr)
        if sorted_x is not None:
            sorted_x = np.asarray(sorted_x, dtype=np.float64).reshape(arr.shape)
        elif "shapiro_wilk" in self.tests or "anderson_darling" in self.tests:
            sorted_x = np.sort(arr, axis=-1)
        report = NormalityReport(
            alpha=self.alpha, n_groups=arr.shape[0], group_size=arr.shape[1]
        )
        for name in self.tests:
            report.outcomes[name] = self._run_single(
                name, arr, b1=b1, b2=b2, sorted_x=sorted_x
            )
        return report

    # ------------------------------------------------------------------
    def _run_single(
        self,
        name: str,
        arr: np.ndarray,
        *,
        b1: Optional[np.ndarray] = None,
        b2: Optional[np.ndarray] = None,
        sorted_x: Optional[np.ndarray] = None,
    ) -> TestOutcome:
        if name == "dagostino":
            result = dagostino_k2(arr, b1=b1, b2=b2)
            passed = result.passes(self.alpha)
            return TestOutcome(name, result.statistic, result.pvalue, passed)
        if name == "shapiro_wilk":
            result = shapiro_wilk(arr, sorted_x=sorted_x)
            passed = result.passes(self.alpha)
            return TestOutcome(name, result.statistic, result.pvalue, passed)
        if name == "anderson_darling":
            result = anderson_darling(arr, sorted_x=sorted_x)
            passed = result.passes(self.alpha)
            return TestOutcome(name, result.statistic, result.pvalue, passed)
        raise ValueError(f"unknown test {name!r}")
