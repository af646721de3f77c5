"""Anderson–Darling test for normality (batch vectorised).

Implements the EDF statistic of Stephens (1974) — the reference the paper
cites — for the composite hypothesis that the data come from a normal
distribution with unknown mean and variance (Stephens' "case 3"):

.. math::

    A^2 = -n - \\frac{1}{n}\\sum_{i=1}^{n} (2i-1)
          \\left[\\ln \\Phi(y_{(i)}) + \\ln(1-\\Phi(y_{(n+1-i)}))\\right]

with the small-sample correction ``A*² = A² (1 + 0.75/n + 2.25/n²)``.

Two decision interfaces are provided, because the paper reports the 5 %
significance level:

* :meth:`AndersonDarlingResult.passes` — compare ``A*²`` against Stephens'
  critical value table (the one older ``scipy.stats.anderson`` releases
  used; SciPy 1.17 pairs this correction with D'Agostino's 1986 points).
* ``pvalue`` — the D'Agostino & Stephens (1986) approximation, convenient for
  plotting and for the battery's uniform interface.

The normal CDF is the numpy :func:`repro.stats._normal.ndtr` (chunked, so
its temporaries stay small on a paper-scale matrix); SciPy is the test
suite's oracle, not a dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.stats._normal import ndtr


#: Stephens (1974) critical values of A*² for the normal case with estimated
#: parameters, keyed by significance level in percent.
CRITICAL_VALUES: Dict[float, float] = {
    15.0: 0.576,
    10.0: 0.656,
    5.0: 0.787,
    2.5: 0.918,
    1.0: 1.092,
}


@dataclass(frozen=True)
class AndersonDarlingResult:
    """Outcome of the Anderson–Darling test for a batch of groups.

    Attributes
    ----------
    statistic:
        The corrected statistic ``A*²`` per group.
    raw_statistic:
        The uncorrected ``A²``.
    pvalue:
        Approximate p-value (D'Agostino & Stephens 1986).
    """

    statistic: np.ndarray
    raw_statistic: np.ndarray
    pvalue: np.ndarray

    def passes(self, alpha: float = 0.05) -> np.ndarray:
        """Groups that *fail to reject* normality at significance ``alpha``.

        Uses Stephens' critical-value table when ``alpha`` matches a tabulated
        level (as the paper's 5 % level does), otherwise the approximate
        p-value.
        """
        level = alpha * 100.0
        for key, crit in CRITICAL_VALUES.items():
            if abs(level - key) < 1e-9:
                return self.statistic < crit
        return self.pvalue > alpha


def _approximate_pvalue(a2_star: np.ndarray) -> np.ndarray:
    """D'Agostino & Stephens (1986, table 4.9) p-value approximation.

    The published quadratic-in-``A*²`` fit is only meaningful for moderate
    statistics; beyond ``A*² = 10`` the p-value is far below double precision
    anyway, so the statistic is clamped there to keep the formula monotone
    (without the clamp the quadratic term would eventually *grow* again and
    overflow).
    """
    a = np.minimum(np.asarray(a2_star, dtype=np.float64), 10.0)
    p = np.empty_like(a)
    hi = a >= 0.6
    mid = (a >= 0.34) & ~hi
    low = (a >= 0.2) & ~hi & ~mid
    tiny = a < 0.2
    p[hi] = np.exp(1.2937 - 5.709 * a[hi] + 0.0186 * a[hi] ** 2)
    p[mid] = np.exp(0.9177 - 4.279 * a[mid] - 1.38 * a[mid] ** 2)
    p[low] = 1.0 - np.exp(-8.318 + 42.796 * a[low] - 59.938 * a[low] ** 2)
    p[tiny] = 1.0 - np.exp(-13.436 + 101.14 * a[tiny] - 223.73 * a[tiny] ** 2)
    return np.clip(p, 0.0, 1.0)


def anderson_darling(x, *, sorted_x=None) -> AndersonDarlingResult:
    """Anderson–Darling normality test along the last axis of ``x``.

    Parameters
    ----------
    x:
        Array of shape ``(..., n)`` with ``n >= 8`` samples per group.
    sorted_x:
        Optional presorted copy of ``x`` along the last axis (shared with
        Shapiro–Wilk by the normality battery).  Must equal
        ``np.sort(x, axis=-1)``; the result is unchanged.

    Returns
    -------
    AndersonDarlingResult
    """
    arr = np.asarray(x, dtype=np.float64)
    n = arr.shape[-1]
    if n < 8:
        raise ValueError(f"Anderson–Darling test requires n >= 8 samples, got {n}")
    sorted_arr = np.sort(arr, axis=-1) if sorted_x is None else np.asarray(sorted_x)
    mean = sorted_arr.mean(axis=-1, keepdims=True)
    std = sorted_arr.std(axis=-1, ddof=1, keepdims=True)
    degenerate = (std <= 0).reshape(std.shape[:-1])
    safe_std = np.where(std > 0, std, 1.0)
    # two full-size work arrays besides the sorted copy: ``y`` becomes
    # ln(1 - Φ(y_(n+1-i))) once ``cdf`` holds Φ, and ``cdf`` becomes the
    # weighted sum's terms
    y = sorted_arr - mean
    y /= safe_std
    cdf = ndtr(y)
    eps = np.finfo(np.float64).tiny
    log_sf = np.subtract(1.0, cdf[..., ::-1], out=y)
    np.log(np.clip(log_sf, eps, 1.0, out=log_sf), out=log_sf)
    terms = np.log(np.clip(cdf, eps, 1.0, out=cdf), out=cdf)
    terms += log_sf
    i = np.arange(1, n + 1, dtype=np.float64)
    terms *= (2.0 * i - 1.0) / n
    a2 = -n - np.sum(terms, axis=-1)
    a2_star = a2 * (1.0 + 0.75 / n + 2.25 / (n * n))
    pvalue = _approximate_pvalue(a2_star)
    # Constant groups: force a rejection (A² is undefined; the measurement
    # pipeline treats an all-identical arrival vector as trivially non-normal).
    a2 = np.where(degenerate, np.inf, a2)
    a2_star = np.where(degenerate, np.inf, a2_star)
    pvalue = np.where(degenerate, 0.0, pvalue)
    return AndersonDarlingResult(
        statistic=np.asarray(a2_star),
        raw_statistic=np.asarray(a2),
        pvalue=np.asarray(pvalue),
    )
