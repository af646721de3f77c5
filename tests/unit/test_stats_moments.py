"""Unit tests for vectorised sample moments."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.stats.moments import (
    central_moment,
    kurtosis,
    skewness,
    skewness_kurtosis,
    standardize,
)


#: unit-test shape and the paper-scale application-iteration matrix (200
#: iterations of 3840 samples), the normality battery's largest input
SHAPES = [(50, 30), (200, 3840)]


class TestMoments:
    def test_skewness_matches_scipy_biased(self, rng):
        for shape in SHAPES:
            data = rng.exponential(size=shape)
            expected = scipy_stats.skew(data, axis=-1, bias=True)
            np.testing.assert_allclose(skewness(data), expected, rtol=1e-12)
            np.testing.assert_allclose(
                skewness_kurtosis(data)[0], expected, rtol=1e-12
            )

    def test_kurtosis_matches_scipy_pearson(self, rng):
        for shape in SHAPES:
            data = rng.normal(size=shape)
            expected = scipy_stats.kurtosis(data, axis=-1, fisher=False, bias=True)
            np.testing.assert_allclose(kurtosis(data), expected, rtol=1e-12)
            np.testing.assert_allclose(
                skewness_kurtosis(data)[1], expected, rtol=1e-12
            )

    def test_fisher_kurtosis_of_normal_near_zero(self, rng):
        data = rng.normal(size=200_000)
        assert abs(kurtosis(data, fisher=True)) < 0.05

    def test_constant_data_has_zero_skew_and_kurtosis(self, rng):
        data = np.full((3, 10), 7.0)
        np.testing.assert_array_equal(skewness(data), 0.0)
        np.testing.assert_array_equal(kurtosis(data), 0.0)
        # constant rows among varying ones, through the shared kernel
        data = rng.normal(size=(4, 64))
        data[1] = 7.0
        data[3] = -2.5
        b1, b2 = skewness_kurtosis(data)
        np.testing.assert_array_equal(b1[[1, 3]], 0.0)
        np.testing.assert_array_equal(b2[[1, 3]], 0.0)
        assert np.all(b2[[0, 2]] > 0.0)

    def test_central_moment_second_is_biased_variance(self, rng):
        data = rng.normal(size=(4, 100))
        np.testing.assert_allclose(
            central_moment(data, 2), data.var(axis=-1), rtol=1e-12
        )

    def test_standardize_zero_mean_unit_std(self, rng):
        data = rng.normal(5.0, 3.0, size=(6, 200))
        z = standardize(data)
        np.testing.assert_allclose(z.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=-1, ddof=1), 1.0, rtol=1e-12)

    def test_standardize_constant_rows_are_zero(self):
        z = standardize(np.full((2, 5), 3.0))
        np.testing.assert_array_equal(z, 0.0)

    def test_empty_last_axis_rejected(self):
        with pytest.raises(ValueError):
            skewness(np.empty((3, 0)))


class TestSharedMomentKernel:
    """``skewness_kurtosis`` (the normality battery's kernel) against the
    single-moment functions and SciPy."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_bitwise_equal_to_separate_moments(self, rng, shape):
        data = rng.gamma(2.0, size=shape)
        b1, b2 = skewness_kurtosis(data)
        np.testing.assert_array_equal(b1, skewness(data))
        np.testing.assert_array_equal(b2, kurtosis(data))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_central_moments_give_the_same_ratios(self, rng, shape):
        data = rng.gamma(2.0, size=shape)
        m2, m3, m4 = (central_moment(data, order) for order in (2, 3, 4))
        b1, b2 = skewness_kurtosis(data)
        np.testing.assert_array_equal(b1, m3 / np.power(m2, 1.5))
        np.testing.assert_array_equal(b2, m4 / (m2 * m2))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("order", [3, 4])
    def test_central_moment_matches_scipy(self, rng, shape, order):
        data = rng.exponential(size=shape)
        np.testing.assert_allclose(
            central_moment(data, order),
            scipy_stats.moment(data, order, axis=-1),
            rtol=1e-12,
        )

    def test_large_offset_arrival_times(self, rng):
        """Arrival times in seconds: a ~1e3 s offset carrying microsecond
        structure.  The moments come from the deviations, so the offset must
        not cost precision beyond what the mean subtraction already does."""
        noise = rng.gamma(2.0, size=(200, 3840))
        data = 1.0e3 + 1.0e-6 * noise
        b1, b2 = skewness_kurtosis(data)
        np.testing.assert_allclose(
            b1, scipy_stats.skew(data, axis=-1, bias=True), rtol=1e-12
        )
        np.testing.assert_allclose(
            b2,
            scipy_stats.kurtosis(data, axis=-1, fisher=False, bias=True),
            rtol=1e-12,
        )
        # and the shape statistics are those of the noise itself, up to the
        # float64 resolution of the offset samples (~1e-13 s on 1e-6 s)
        np.testing.assert_allclose(b1, skewness(noise), rtol=1e-5)
        np.testing.assert_allclose(b2, kurtosis(noise), rtol=1e-5)
