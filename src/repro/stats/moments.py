"""Vectorised sample moments.

All functions accept an array of shape ``(..., n)`` and reduce over the last
axis, so a ``(16000, 48)`` matrix of process-iteration samples is handled in
one call.  Definitions follow the "biased" sample moments used by the
classical normality-test literature (Fisher–Pearson ``g1`` skewness,
``g2``-style kurtosis without bias correction), matching
``scipy.stats.skew(..., bias=True)`` and ``scipy.stats.kurtosis(...,
fisher=False, bias=True)``.
"""

from __future__ import annotations

import numpy as np


def _as_float_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] < 1:
        raise ValueError("need at least one sample along the last axis")
    return arr


def _deviation_power(deviations: np.ndarray, order: int) -> np.ndarray:
    """``deviations ** order`` with orders 3 and 4 as plain multiplications.

    numpy squares a float array for ``** 2`` but sends ``** 3`` / ``** 4``
    through libm ``pow``, which is roughly 15-20x slower; ``d2 * d`` and
    ``d2 * d2`` (``d2 = d * d``) agree with it to within an ulp or two.
    """
    if order == 3:
        return deviations * deviations * deviations
    if order == 4:
        squared = deviations * deviations
        return squared * squared
    return deviations**order


def central_moment(x, order: int) -> np.ndarray:
    """``order``-th central sample moment along the last axis."""
    arr = _as_float_array(x)
    mean = arr.mean(axis=-1, keepdims=True)
    return np.mean(_deviation_power(arr - mean, order), axis=-1)


def skewness(x) -> np.ndarray:
    """Fisher–Pearson coefficient of skewness ``g1 = m3 / m2**1.5``."""
    arr = _as_float_array(x)
    m2 = central_moment(arr, 2)
    m3 = central_moment(arr, 3)
    safe_m2 = np.where(m2 > 0, m2, 1.0)
    return np.where(m2 > 0, m3 / np.power(safe_m2, 1.5), 0.0)


def kurtosis(x, *, fisher: bool = False) -> np.ndarray:
    """Sample kurtosis ``b2 = m4 / m2**2`` (Pearson; subtract 3 for Fisher)."""
    arr = _as_float_array(x)
    m2 = central_moment(arr, 2)
    m4 = central_moment(arr, 4)
    safe_m2 = np.where(m2 > 0, m2, 1.0)
    b2 = np.where(m2 > 0, m4 / (safe_m2 * safe_m2), 0.0)
    return b2 - 3.0 if fisher else b2


def skewness_kurtosis(x) -> "tuple[np.ndarray, np.ndarray]":
    """Skewness ``g1`` and Pearson kurtosis ``b2`` from one deviations pass.

    Bit-identical to calling :func:`skewness` and :func:`kurtosis`
    separately: the deviations are computed once and their square once,
    and the cube and fourth power are the same products
    :func:`central_moment` forms (``d2 * d`` and ``d2 * d2``), so every
    moment matches element for element.  This is the moment kernel of the
    normality battery.
    """
    arr = _as_float_array(x)
    mean = arr.mean(axis=-1, keepdims=True)
    deviations = arr - mean
    squared = deviations * deviations
    m2 = np.mean(squared, axis=-1)
    m3 = np.mean(squared * deviations, axis=-1)
    m4 = np.mean(squared * squared, axis=-1)
    safe_m2 = np.where(m2 > 0, m2, 1.0)
    b1 = np.where(m2 > 0, m3 / np.power(safe_m2, 1.5), 0.0)
    b2 = np.where(m2 > 0, m4 / (safe_m2 * safe_m2), 0.0)
    return b1, b2


def standardize(x, *, ddof: int = 1) -> np.ndarray:
    """Standardise samples along the last axis: ``(x - mean) / std``.

    Groups with zero variance are returned as zeros (they are degenerate for
    every normality test and handled explicitly by the callers).
    """
    arr = _as_float_array(x)
    mean = arr.mean(axis=-1, keepdims=True)
    std = arr.std(axis=-1, ddof=ddof, keepdims=True)
    safe = np.where(std > 0, std, 1.0)
    out = (arr - mean) / safe
    return np.where(std > 0, out, 0.0)


def coefficient_of_variation(x) -> np.ndarray:
    """Standard deviation divided by the mean (last axis)."""
    arr = _as_float_array(x)
    mean = arr.mean(axis=-1)
    std = arr.std(axis=-1, ddof=1) if arr.shape[-1] > 1 else np.zeros_like(mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mean != 0, std / mean, 0.0)
