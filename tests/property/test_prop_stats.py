"""Property-based tests of the statistics layer (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from repro.stats import anderson, dagostino, shapiro
from repro.stats.anderson import anderson_darling
from repro.stats.battery import NormalityBattery
from repro.stats.dagostino import dagostino_k2
from repro.stats.histogram import fixed_width_histogram
from repro.stats.moments import kurtosis, skewness
from repro.stats.percentiles import iqr, sorted_median, sorted_percentiles
from repro.stats.shapiro import shapiro_wilk

#: groups of n in [8, 64] samples with values in a physical range (µs..s)
sample_groups = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 6), st.integers(8, 64)),
    elements=st.floats(1e-6, 1.0, allow_nan=False, allow_infinity=False),
)


@given(sample_groups)
@settings(max_examples=60, deadline=None)
def test_normality_statistics_are_finite_and_pvalues_bounded(groups):
    for result in (dagostino_k2(groups), shapiro_wilk(groups), anderson_darling(groups)):
        assert np.all((result.pvalue >= 0.0) & (result.pvalue <= 1.0))
    w = shapiro_wilk(groups).statistic
    assert np.all((w >= 0.0) & (w <= 1.0))


@given(sample_groups)
@settings(max_examples=60, deadline=None)
def test_tests_are_location_and_scale_invariant(groups):
    """Affine transforms (unit changes) must not change any decision.

    The property only holds for groups whose spread is numerically
    meaningful: when a group's range is a few ULPs the test statistics are
    computed on float rounding noise, and an affine transform rewrites that
    noise (e.g. collapsing a 1-ULP spread to exactly constant), so
    decisions on such degenerate groups are arbitrary either way.
    """
    from hypothesis import assume

    spreads = np.ptp(groups, axis=1)
    assume(np.all(spreads > 1e-9 * np.max(np.abs(groups), axis=1)))
    battery = NormalityBattery()
    base = battery.run(groups)
    transformed = battery.run(groups * 1e3 + 17.0)
    for name, outcome in base.outcomes.items():
        np.testing.assert_array_equal(outcome.passed, transformed.outcomes[name].passed)


@given(sample_groups)
@settings(max_examples=60, deadline=None)
def test_shuffling_samples_does_not_change_statistics(groups):
    rng = np.random.default_rng(0)
    shuffled = groups.copy()
    for row in shuffled:
        rng.shuffle(row)
    np.testing.assert_allclose(
        shapiro_wilk(groups).statistic, shapiro_wilk(shuffled).statistic, rtol=1e-10
    )
    np.testing.assert_allclose(
        anderson_darling(groups).statistic,
        anderson_darling(shuffled).statistic,
        rtol=1e-10,
        atol=1e-12,
    )


@given(sample_groups)
@settings(max_examples=60, deadline=None)
def test_moment_identities(groups):
    assert np.all(kurtosis(groups) >= 0.0)
    # skewness of mirrored data is the negation of the original
    np.testing.assert_allclose(skewness(-groups), -skewness(groups), atol=1e-8)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.integers(2, 400),
        elements=st.floats(0.0, 0.2, allow_nan=False),
    ),
    st.floats(1e-5, 1e-2),
)
@settings(max_examples=60, deadline=None)
def test_histogram_conserves_samples_and_covers_range(samples, bin_width):
    hist = fixed_width_histogram(samples, bin_width)
    assert hist.total == len(samples)
    assert hist.edges[0] <= samples.min()
    assert hist.edges[-1] >= samples.max()
    widths = np.diff(hist.edges)
    np.testing.assert_allclose(widths, bin_width, rtol=1e-9)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 5), st.integers(4, 100)),
        elements=st.floats(0.0, 1.0, allow_nan=False),
    )
)
@settings(max_examples=60, deadline=None)
def test_iqr_nonnegative_and_bounded_by_range(groups):
    values = iqr(groups)
    ranges = groups.max(axis=-1) - groups.min(axis=-1)
    assert np.all(values >= -1e-12)
    assert np.all(values <= ranges + 1e-12)


#: batch families the battery meets: normal, skewed and heavy-tailed
_FAMILIES = {
    "normal": lambda rng, size: rng.normal(size=size),
    "lognormal": lambda rng, size: rng.lognormal(sigma=0.5, size=size),
    "exponential": lambda rng, size: rng.exponential(size=size),
    "student_t3": lambda rng, size: rng.standard_t(3, size=size),
}


@given(
    family=st.sampled_from(sorted(_FAMILIES)),
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 40), st.integers(8, 400)),
)
@settings(max_examples=60, deadline=None)
def test_battery_masks_unchanged_with_scipy_special(family, seed, shape):
    """The numpy special functions decide every group as ``scipy.special``
    does: swapping SciPy's ``ndtr``/``ndtri``/``chdtrc`` into the three
    test modules leaves every pass mask unchanged (thread times on a
    ~25 ms offset, as the campaigns produce them)."""
    groups = 25e-3 + 1e-4 * _FAMILIES[family](np.random.default_rng(seed), shape)
    battery = NormalityBattery()
    ours = battery.run(groups)
    with pytest.MonkeyPatch.context() as patch:
        for module, names in (
            (anderson, ("ndtr",)),
            (shapiro, ("ndtr", "ndtri")),
            (dagostino, ("ndtr", "chdtrc")),
        ):
            for name in names:
                patch.setattr(module, name, getattr(special, name))
        shapiro.shapiro_weights.cache_clear()
        try:
            theirs = battery.run(groups)
        finally:
            shapiro.shapiro_weights.cache_clear()
    for name, outcome in ours.outcomes.items():
        np.testing.assert_array_equal(outcome.passed, theirs.outcomes[name].passed)
        np.testing.assert_allclose(
            outcome.pvalue, theirs.outcomes[name].pvalue, rtol=1e-9, atol=1e-12
        )


#: the paper's percentile levels and the range ends
_PAPER_LEVELS = (0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 100.0)

#: values with many exact ties; ``+ 0.0`` folds -0.0 into 0.0, because
#: signed zeros compare equal and neither sort nor partition orders them
_tied_values = st.one_of(
    st.sampled_from([0.0, 1.0e-3, 0.5, 2.5, 25.0e-3]),
    st.floats(-1.0e3, 1.0e3, allow_nan=False, allow_infinity=False),
).map(lambda v: v + 0.0)


def _rows(seed: int, n_rows: int, n: int) -> np.ndarray:
    """A seeded ``(n_rows, n)`` matrix of tied values (for the long rows)."""
    rng = np.random.default_rng(seed)
    pool = rng.choice([0.0, 1.0e-3, 0.5, 25.0e-3], size=(n_rows, n))
    return np.where(rng.random((n_rows, n)) < 0.5, pool, rng.normal(size=(n_rows, n)))


@st.composite
def _tied_matrices(draw):
    n_rows = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return _rows(draw(st.integers(0, 2**32 - 1)), n_rows, 3840)
    n = draw(st.integers(1, 100))
    return draw(hnp.arrays(np.float64, (n_rows, n), elements=_tied_values))


_levels = st.lists(
    st.one_of(st.sampled_from(_PAPER_LEVELS), st.floats(0.0, 100.0)),
    min_size=1,
    max_size=7,
)


def _assert_bitwise_equal(ours, theirs) -> None:
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
    np.testing.assert_array_equal(ours.view(np.int64), theirs.view(np.int64))


@given(_tied_matrices(), _levels)
@settings(max_examples=120, deadline=None)
def test_sorted_order_statistics_equal_numpy_bitwise(x, levels):
    """Order statistics read off ``np.sort(x)`` are numpy's, bit for bit,
    for odd and even row lengths, ties, the range ends and n = 3840."""
    ordered = np.sort(x, axis=-1)
    _assert_bitwise_equal(
        sorted_percentiles(ordered, levels), np.percentile(x, levels, axis=-1)
    )
    _assert_bitwise_equal(sorted_median(ordered), np.median(x, axis=-1))
    _assert_bitwise_equal(
        sorted_percentiles(ordered[0], levels[0]), np.percentile(x[0], levels[0])
    )


@given(_tied_matrices(), _levels, st.data())
@settings(max_examples=60, deadline=None)
def test_sorted_order_statistics_of_a_nan_row_are_nan(x, levels, data):
    """A row holding NaN gives NaN, as numpy does; the other rows are
    untouched."""
    row = data.draw(st.integers(0, x.shape[0] - 1))
    x = x.copy()
    x[row, data.draw(st.integers(0, x.shape[1] - 1))] = np.nan
    ordered = np.sort(x, axis=-1)
    with np.errstate(invalid="ignore"):
        ours = sorted_percentiles(ordered, levels), sorted_median(ordered)
        theirs = np.percentile(x, levels, axis=-1), np.median(x, axis=-1)
    for a, b in zip(ours, theirs):
        assert np.all(np.isnan(a[..., row]))
        _assert_bitwise_equal(a, b)
