"""Numpy special functions of the normality battery (no SciPy at runtime).

The three tests need three special functions, named as in
``scipy.special`` (which the test suite uses as their oracle):

* :func:`ndtr` — the standard normal CDF, from W. J. Cody's rational
  Chebyshev approximations of erf/erfc (Math. Comp. 23, 1969; netlib
  ``CALERF``).  Like cephes it evaluates ``1/2 + erf(z)/2`` near zero and
  ``erfc(|z|)/2`` (``1 - erfc(|z|)/2`` for positive ``z``) elsewhere, with
  ``z = x/√2``.  ``exp(-y²)`` is split at ``trunc(16 y) / 16`` so the
  lower tail keeps full relative precision down to ``ndtr(-37)``.
* :func:`ndtri` — its inverse, from Wichura's AS241
  (:meth:`statistics.NormalDist.inv_cdf`); only Shapiro–Wilk's weight
  vector needs it, once per sample size.
* :func:`chdtrc` — the χ² survival function for the 2 degrees of freedom
  of D'Agostino's K², which is ``exp(-x/2)``.

:func:`ndtr` walks its input in chunks of :data:`CHUNK_SIZE` elements, so
its temporaries stay a few hundred KB whatever the batch size.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

#: elements per :func:`ndtr` evaluation chunk (bounds the temporaries)
CHUNK_SIZE = 16384

# Cody (1969) coefficients in CALERF's order, which :func:`_rational` reads:
# the numerator's leading coefficient last, its constant term next to last.
# erf(z) = z R_A(z²) for |z| <= 0.46875
_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
      3.20937758913846947e03, 1.85777706184603153e-1)
_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
      2.84423683343917062e03)
# erfc(y) = exp(-y²) R_C(y) for 0.46875 < y <= 4
_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
      2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
      2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
      1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
      3.43936767414372164e03, 1.23033935480374942e03)
# erfc(y) = exp(-y²) (1/√π - R_P(1/y²) / y²) / y for y > 4
_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
      1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)

_THRESH = 0.46875
_SQRT1_2 = 0.70710678118654752440
_ONE_OVER_SQRT_PI = 5.6418958354775628695e-1
#: erfc(y) underflows to zero beyond this argument
_XBIG = 26.543

_NORMAL = NormalDist()


def _rational(t: np.ndarray, p, q) -> np.ndarray:
    """Cody's rational function of ``t`` in his nested (Horner) order."""
    num = p[-1] * t
    den = t.copy()
    for a, b in zip(p[:-2], q[:-1]):
        num += a
        num *= t
        den += b
        den *= t
    num += p[-2]
    den += q[-1]
    num /= den
    return num


def _exp_neg_square(y: np.ndarray) -> np.ndarray:
    """``exp(-y²)`` as ``exp(-s²) exp(-(y - s)(y + s))``, ``s = trunc(16 y)/16``.

    ``s²`` is exact, so the rounding error of ``y²`` never reaches the
    exponent.
    """
    s = np.trunc(y * 16.0)
    s *= 0.0625
    rest = (y - s) * (y + s)
    np.negative(rest, out=rest)
    np.exp(rest, out=rest)
    np.square(s, out=s)
    np.negative(s, out=s)
    np.exp(s, out=s)
    s *= rest
    return s


def _erfc_tail(y: np.ndarray) -> np.ndarray:
    """Cody's erfc for ``y > 4`` (zero from ``26.543`` on, where it underflows)."""
    clipped = np.minimum(y, _XBIG)
    r = 1.0 / (clipped * clipped)
    series = (_ONE_OVER_SQRT_PI - r * _rational(r, _P, _Q)) / clipped
    out = _exp_neg_square(clipped) * series
    out[y >= _XBIG] = 0.0
    return out


def _ndtr_chunk(x: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = ndtr(x)`` for one flat float64 chunk.

    Each of Cody's three ranges (near zero, middle, tail) is evaluated only
    on its own elements, gathered with ``flatnonzero`` and scattered back
    into ``out``; NaN falls in the middle range and stays NaN.  On the
    standardized 16000×48 matrix Anderson–Darling sees, best of 15 on a
    2-core Xeon, this takes ~23 ms sorted and ~25 ms unsorted, against ~26
    ms and ~38 ms for evaluating both the near-zero and the middle range on
    every element and selecting with ``where`` (bit-identical results).
    """
    z = x * _SQRT1_2
    y = np.abs(z)
    near = y <= _THRESH
    tail = y > 4.0
    index = np.flatnonzero(near)
    zn = z[index]
    half_erf = _rational(zn * zn, _A, _B)
    half_erf *= zn
    half_erf *= 0.5
    half_erf += 0.5
    out[index] = half_erf
    index = np.flatnonzero(~(near | tail))
    ym = y[index]
    half_erfc = _rational(ym, _C, _D)
    half_erfc *= _exp_neg_square(ym)
    half_erfc *= 0.5
    _scatter_half_erfc(out, index, z, half_erfc)
    index = np.flatnonzero(tail)
    _scatter_half_erfc(out, index, z, 0.5 * _erfc_tail(y[index]))


def _scatter_half_erfc(
    out: np.ndarray, index: np.ndarray, z: np.ndarray, half_erfc: np.ndarray
) -> None:
    """``out[index] = Φ`` from ``erfc(|z|)/2``: itself where ``z <= 0``,
    ``1 - `` it where ``z > 0``."""
    np.subtract(1.0, half_erfc, out=half_erfc, where=z[index] > 0.0)
    out[index] = half_erfc


def ndtr(x):
    """Standard normal CDF ``Φ(x)``; a numpy port of ``scipy.special.ndtr``.

    Takes what the ufunc takes (scalars, 0-d, empty and n-d arrays) and
    returns the same shape and dtype (float32 for float32 input, else
    float64).  Within 16 ulp of ``0.5 * math.erfc(-x/√2)``
    over ``[-37, 9]``.
    """
    arr = np.asarray(x)
    dtype = np.float32 if arr.dtype == np.float32 else np.float64
    flat = np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
    out = np.empty(flat.shape, dtype=np.float64)
    for start in range(0, flat.size, CHUNK_SIZE):
        stop = start + CHUNK_SIZE
        _ndtr_chunk(flat[start:stop], out[start:stop])
    result = out.reshape(arr.shape).astype(dtype, copy=False)
    return result[()] if result.ndim == 0 else result


def ndtri(p):
    """Inverse of :func:`ndtr` for ``0 < p < 1`` (AS241, element by element).

    A Python loop: meant for once-per-``n`` vectors such as Shapiro–Wilk's
    expected normal order statistics.
    """
    arr = np.asarray(p, dtype=np.float64)
    values = [_NORMAL.inv_cdf(v) for v in arr.reshape(-1).tolist()]
    result = np.array(values, dtype=np.float64).reshape(arr.shape)
    return result[()] if result.ndim == 0 else result


def chdtrc(df, x):
    """χ² survival function ``P(X > x)``, for ``df = 2`` only: ``exp(-x/2)``.

    Negative ``x`` gives NaN, as in SciPy.
    """
    if df != 2:
        raise ValueError(f"only df=2 is implemented, got df={df}")
    arr = np.asarray(x, dtype=np.float64)
    return np.exp(np.where(arr < 0.0, np.nan, -0.5 * arr))
