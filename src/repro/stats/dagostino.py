"""D'Agostino's K² omnibus test for normality (batch vectorised).

The omnibus statistic combines a transformed skewness statistic (D'Agostino
1971, the test cited by the paper) with a transformed kurtosis statistic
(Anscombe & Glynn 1983):

.. math:: K^2 = Z_1(\\sqrt{b_1})^2 + Z_2(b_2)^2 \\sim \\chi^2_2

Implementation follows D'Agostino, Belanger & D'Agostino Jr. (1990), the same
formulation as ``scipy.stats.normaltest`` / ``skewtest`` / ``kurtosistest``.
The normal CDF and the χ²₂ survival function come from the numpy module
:mod:`repro.stats._normal`; SciPy is the test suite's oracle (agreement to
~1e-10), not a dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats._normal import chdtrc, ndtr
from repro.stats.moments import kurtosis, skewness


@dataclass(frozen=True)
class DAgostinoResult:
    """Outcome of the K² omnibus test for a batch of groups.

    Attributes
    ----------
    statistic:
        K² statistic per group.
    pvalue:
        Two-sided p-value per group (χ² with 2 degrees of freedom).
    z_skew, z_kurtosis:
        The component Z statistics.
    """

    statistic: np.ndarray
    pvalue: np.ndarray
    z_skew: np.ndarray
    z_kurtosis: np.ndarray

    def passes(self, alpha: float = 0.05) -> np.ndarray:
        """Boolean mask of groups that *fail to reject* normality at ``alpha``."""
        return self.pvalue > alpha


def _z_skew(b1: np.ndarray, n: int) -> np.ndarray:
    """D'Agostino's transformed skewness statistic ``Z1`` of skewness ``b1``."""
    y = b1 * np.sqrt(((n + 1.0) * (n + 3.0)) / (6.0 * (n - 2.0)))
    beta2 = (
        3.0
        * (n * n + 27.0 * n - 70.0)
        * (n + 1.0)
        * (n + 3.0)
        / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0))
    )
    w2 = -1.0 + np.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / np.sqrt(0.5 * np.log(w2))
    alpha = np.sqrt(2.0 / (w2 - 1.0))
    y = np.where(y == 0, 1.0, y)  # keep log argument finite; sign restored below
    z = delta * np.log(y / alpha + np.sqrt((y / alpha) ** 2 + 1.0))
    return np.where(b1 == 0, 0.0, z)


def _z_kurtosis(b2: np.ndarray, n: int) -> np.ndarray:
    """Anscombe–Glynn transformed kurtosis statistic ``Z2`` of kurtosis ``b2``."""
    expected = 3.0 * (n - 1.0) / (n + 1.0)
    variance = (
        24.0 * n * (n - 2.0) * (n - 3.0) / ((n + 1.0) ** 2 * (n + 3.0) * (n + 5.0))
    )
    x_std = (b2 - expected) / np.sqrt(variance)
    sqrt_beta1 = (
        6.0
        * (n * n - 5.0 * n + 2.0)
        / ((n + 7.0) * (n + 9.0))
        * np.sqrt(6.0 * (n + 3.0) * (n + 5.0) / (n * (n - 2.0) * (n - 3.0)))
    )
    a = 6.0 + 8.0 / sqrt_beta1 * (
        2.0 / sqrt_beta1 + np.sqrt(1.0 + 4.0 / sqrt_beta1**2)
    )
    term1 = 1.0 - 2.0 / (9.0 * a)
    denom = 1.0 + x_std * np.sqrt(2.0 / (a - 4.0))
    # cube root preserving sign, guarding the denom == 0 degenerate case
    safe_denom = np.where(denom == 0, 1.0, denom)
    ratio = (1.0 - 2.0 / a) / safe_denom
    term2 = np.sign(ratio) * np.abs(ratio) ** (1.0 / 3.0)
    z = (term1 - term2) / np.sqrt(2.0 / (9.0 * a))
    return np.where(denom == 0, 0.0, z)


def _check_skewness_n(n: int) -> None:
    if n < 8:
        raise ValueError(f"skewness test requires n >= 8 samples, got {n}")


def skewness_test(x, *, b1=None) -> tuple[np.ndarray, np.ndarray]:
    """D'Agostino's transformed skewness statistic ``Z1`` and its p-value.

    Requires at least 8 samples per group (as SciPy does).  ``b1`` accepts
    a precomputed skewness array (the battery shares one deviations pass
    across tests); passing it changes nothing numerically because
    :func:`~repro.stats.moments.skewness` is deterministic.
    """
    arr = np.asarray(x, dtype=np.float64)
    n = arr.shape[-1]
    _check_skewness_n(n)
    z = _z_skew(skewness(arr) if b1 is None else b1, n)
    return z, 2.0 * (1.0 - ndtr(np.abs(z)))


def kurtosis_test(x, *, b2=None) -> tuple[np.ndarray, np.ndarray]:
    """Anscombe–Glynn transformed kurtosis statistic ``Z2`` and its p-value.

    Requires at least 5 samples per group (as SciPy does; SciPy warns for
    n < 20, we simply compute).  ``b2`` accepts a precomputed Pearson
    kurtosis array (see :func:`skewness_test`).
    """
    arr = np.asarray(x, dtype=np.float64)
    n = arr.shape[-1]
    if n < 5:
        raise ValueError(f"kurtosis test requires n >= 5 samples, got {n}")
    z = _z_kurtosis(kurtosis(arr, fisher=False) if b2 is None else b2, n)
    return z, 2.0 * (1.0 - ndtr(np.abs(z)))


def dagostino_k2(x, *, b1=None, b2=None) -> DAgostinoResult:
    """D'Agostino–Pearson K² omnibus test along the last axis.

    Parameters
    ----------
    x:
        Array of shape ``(..., n)`` with ``n >= 8`` samples per group.
    b1, b2:
        Optional precomputed skewness / Pearson kurtosis arrays (the
        normality battery shares one deviations pass across both component
        tests); omitting them reproduces the standalone computation.

    Returns
    -------
    DAgostinoResult
        Per-group statistic, p-value and component Z scores.
    """
    arr = np.asarray(x, dtype=np.float64)
    n = arr.shape[-1]
    _check_skewness_n(n)
    # only the Z scores enter K²: the component p-values are not computed
    z_skew = _z_skew(skewness(arr) if b1 is None else b1, n)
    z_kurt = _z_kurtosis(kurtosis(arr, fisher=False) if b2 is None else b2, n)
    k2 = z_skew * z_skew + z_kurt * z_kurt
    pvalue = chdtrc(2.0, k2)
    return DAgostinoResult(
        statistic=np.asarray(k2),
        pvalue=np.asarray(pvalue),
        z_skew=np.asarray(z_skew),
        z_kurtosis=np.asarray(z_kurt),
    )
