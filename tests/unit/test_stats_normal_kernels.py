"""The numpy special functions of the normality battery, with SciPy as oracle.

``repro.stats._normal`` replaces ``scipy.special.{ndtr, ndtri, chdtrc}`` at
runtime; these tests hold each replacement to SciPy (and, where SciPy's own
rounding dominates, to the C library's ``erfc``), and bound the memory the
Anderson–Darling kernel allocates so an unchunked ``ndtr`` cannot return.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from repro.stats import _normal
from repro.stats._normal import CHUNK_SIZE, chdtrc, ndtr, ndtri
from repro.stats.anderson import anderson_darling
from repro.stats.shapiro import shapiro_weights

EPS = np.finfo(np.float64).eps

#: the battery's whole range: standardized samples of any group, tails included
GRID = np.linspace(-37.0, 9.0, 46_001)

#: ``x.hex() ndtr(x).hex()`` per line: ulp-neighbours of the branch edges
#: ``±0.46875·√2`` and ``±4·√2`` and of the underflow edge ``±26.543·√2``,
#: the far tail down to -37, a ±10 grid, random points, ±0, ±inf and NaN
NDTR_PINS = Path(__file__).parent / "data" / "ndtr_pins.txt"


def _libm_ndtr(x: np.ndarray) -> np.ndarray:
    """``Φ(x)`` from ``math.erfc`` on the same rounded ``x/√2`` as the kernel."""
    return np.array([0.5 * math.erfc(-v * _normal._SQRT1_2) for v in x.tolist()])


class TestNdtr:
    def test_within_a_few_ulp_of_libm_erfc(self):
        ref = _libm_ndtr(GRID)
        ulp = np.abs(ndtr(GRID) - ref) / np.spacing(ref)
        assert ulp.max() <= 16

    def test_within_scipys_own_error_of_scipy(self):
        """SciPy forms ``exp(-z²)`` from a rounded ``z² = x²/2``, a relative
        error of up to ``x²/4`` ulp; the kernel's split exponent does not.
        The two agree within that bound (plus a few ulp) over the whole
        range, and within 16 ulp where ``|x| <= 4``."""
        ours, theirs = ndtr(GRID), special.ndtr(GRID)
        rel = np.abs(ours - theirs) / theirs
        assert np.all(rel <= (16.0 + GRID * GRID / 2.0) * EPS)
        central = np.abs(GRID) <= 4.0
        ulp = np.abs(ours - theirs) / np.spacing(theirs)
        assert ulp[central].max() <= 16

    def test_lower_tail_is_closer_to_libm_than_scipy(self):
        tail = GRID[GRID < -20.0]
        ref = _libm_ndtr(tail)
        ours = np.abs(ndtr(tail) - ref) / np.spacing(ref)
        theirs = np.abs(special.ndtr(tail) - ref) / np.spacing(ref)
        assert ours.max() < theirs.max()

    @pytest.mark.parametrize(
        "value",
        [
            0.5,
            -3,
            np.float32(0.3),
            np.array(0.2),
            np.array([]),
            np.zeros((0, 3)),
            np.linspace(-5, 5, 12).reshape(3, 4),
            np.arange(-4, 4, dtype=np.int8),
            np.linspace(-5, 5, 7, dtype=np.float32),
        ],
        ids=[
            "float", "int", "float32-scalar", "0-d", "empty", "empty-2d", "2-d",
            "int8", "float32",
        ],
    )
    def test_shape_type_and_dtype_match_scipy(self, value):
        ours, theirs = ndtr(value), special.ndtr(value)
        assert type(ours) is type(theirs)
        assert np.shape(ours) == np.shape(theirs)
        assert np.asarray(ours).dtype == np.asarray(theirs).dtype
        np.testing.assert_allclose(ours, theirs, rtol=32 * EPS, atol=0.0)

    def test_non_finite_inputs(self):
        x = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0])
        np.testing.assert_array_equal(ndtr(x), special.ndtr(x))

    def test_chunking_is_invisible(self):
        """Results do not depend on where the chunk boundaries fall."""
        x = np.random.default_rng(0).normal(scale=4.0, size=2 * CHUNK_SIZE + 7)
        whole = ndtr(x)
        cuts = [0, 5, CHUNK_SIZE + 3, x.size]
        pieces = np.concatenate([ndtr(x[a:b]) for a, b in zip(cuts, cuts[1:])])
        np.testing.assert_array_equal(whole, pieces)

    def test_pinned_values_bit_for_bit(self):
        """The kernel's exact bits at ~1000 points, edges and tails included:
        a rewrite of the branch evaluation may not move a single ulp."""
        pairs = [line.split() for line in NDTR_PINS.read_text().splitlines()]
        x = np.array([float.fromhex(a) for a, _ in pairs])
        got = [float(v).hex() for v in ndtr(x).tolist()]
        assert len(pairs) > 1000
        assert got == [b for _, b in pairs]
        assert [float(ndtr(v)).hex() for v in x[::97]] == [b for _, b in pairs[::97]]


class TestNdtriAndWeights:
    def test_ndtri_matches_scipy(self):
        p = np.concatenate([np.linspace(1e-12, 1 - 1e-12, 4001), [1e-300, 0.5]])
        np.testing.assert_allclose(
            ndtri(p), special.ndtri(p), rtol=4 * EPS, atol=4 * EPS
        )
        assert np.shape(ndtri(0.3)) == ()

    @pytest.mark.parametrize("n", [8, 48, 3840, 5000])
    def test_shapiro_weights_match_scipy_based_weights(self, n, monkeypatch):
        import repro.stats.shapiro as shapiro

        ours = shapiro_weights(n)
        monkeypatch.setattr(shapiro, "ndtri", special.ndtri)
        reference = shapiro.shapiro_weights.__wrapped__(n)
        np.testing.assert_allclose(ours, reference, rtol=0.0, atol=1e-15)

    def test_shapiro_weights_are_memoised_and_read_only(self):
        weights = shapiro_weights(48)
        assert shapiro_weights(48) is weights
        with pytest.raises(ValueError):
            weights[0] = 0.0


class TestChdtrc:
    def test_endpoints(self):
        assert chdtrc(2, 0.0) == special.chdtrc(2, 0.0) == 1.0
        assert chdtrc(2, np.inf) == special.chdtrc(2, np.inf) == 0.0
        assert np.isnan(chdtrc(2, -1.0)) and np.isnan(special.chdtrc(2, -1.0))

    def test_random_arguments_match_scipy(self):
        x = np.random.default_rng(1).exponential(scale=20.0, size=10_000)
        np.testing.assert_allclose(
            chdtrc(2, x), special.chdtrc(2, x), rtol=1e-13, atol=0.0
        )
        assert np.shape(chdtrc(2, 3.0)) == ()

    def test_other_degrees_of_freedom_are_refused(self):
        with pytest.raises(ValueError, match="df=2"):
            chdtrc(3, 1.0)


class TestAndersonDarlingMemory:
    """``anderson_darling`` on a (200, 3840) matrix — the §4.1 application-
    iteration batch — allocates a sort copy, two work arrays and one chunk's
    temporaries (~3× its input); an unchunked ``ndtr`` allocates ~11×."""

    @staticmethod
    def _peak_ratio(x, **kwargs) -> float:
        anderson_darling(x[:2], **{k: v[:2] for k, v in kwargs.items()})
        tracemalloc.start()
        try:
            anderson_darling(x, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / x.nbytes

    @pytest.fixture(scope="class")
    def batch(self):
        return np.random.default_rng(2).normal(size=(200, 3840))

    def test_standalone_call_allocates_about_three_inputs(self, batch):
        assert self._peak_ratio(batch) <= 3.5

    def test_presorted_call_allocates_about_two_inputs(self, batch):
        assert self._peak_ratio(batch, sorted_x=np.sort(batch, axis=-1)) <= 2.5
