"""Unit tests for the mergeable streaming accumulators and sketches."""

import numpy as np
import pytest

from repro.stats.histogram import fixed_width_histogram
from repro.stats.moments import kurtosis, skewness
from repro.stats.sketch import BoundedTopK, PercentileSketch
from repro.stats.streaming import StreamingHistogram, StreamingMoments


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(11)
    return rng.gamma(2.0, 1.0e-3, size=5000)


class TestStreamingMoments:
    def test_matches_pooled_numpy_moments(self, samples):
        acc = StreamingMoments()
        for chunk in np.array_split(samples, 9):
            acc.update(chunk)
        assert acc.count == len(samples)
        assert acc.mean == pytest.approx(samples.mean(), rel=1e-12)
        assert acc.variance() == pytest.approx(samples.var(), rel=1e-10)
        assert acc.skewness == pytest.approx(float(skewness(samples)), rel=1e-8)
        assert acc.kurtosis == pytest.approx(float(kurtosis(samples)), rel=1e-8)
        assert acc.minimum == samples.min()
        assert acc.maximum == samples.max()

    def test_merge_equals_update(self, samples):
        parts = np.array_split(samples, 4)
        merged = StreamingMoments.from_samples(parts[0])
        for part in parts[1:]:
            merged = merged.merge(StreamingMoments.from_samples(part))
        direct = StreamingMoments.from_samples(samples)
        assert merged.n == direct.n
        assert merged.mean == pytest.approx(direct.mean, rel=1e-12)
        assert merged.variance() == pytest.approx(direct.variance(), rel=1e-10)
        assert merged.skewness == pytest.approx(direct.skewness, rel=1e-8)

    def test_merge_order_invariance(self, samples):
        parts = [StreamingMoments.from_samples(c) for c in np.array_split(samples, 5)]
        forward = parts[0]
        for p in parts[1:]:
            forward = forward.merge(p)
        backward = parts[-1]
        for p in reversed(parts[:-1]):
            backward = backward.merge(p)
        assert forward.mean == pytest.approx(backward.mean, rel=1e-12)
        assert forward.variance() == pytest.approx(backward.variance(), rel=1e-10)

    def test_empty_and_degenerate(self):
        acc = StreamingMoments()
        assert acc.count == 0 and acc.variance() == 0.0
        acc.update([])
        assert acc.count == 0
        acc.update([3.0, 3.0, 3.0])
        assert acc.mean == 3.0
        assert acc.skewness == 0.0 and acc.kurtosis == 0.0


class TestStreamingHistogram:
    def test_chunked_equals_single_call(self, samples):
        acc = StreamingHistogram(5e-5)
        for chunk in np.array_split(samples, 11):
            acc.update(chunk)
        reference = fixed_width_histogram(samples, 5e-5)
        merged = acc.finalize()
        np.testing.assert_array_equal(merged.counts, reference.counts)
        np.testing.assert_array_equal(merged.edges, reference.edges)

    def test_merge_is_order_invariant_and_exact(self, samples):
        chunks = np.array_split(samples, 6)
        accs = [StreamingHistogram(5e-5).update(c) for c in chunks]
        forward = accs[0]
        for a in accs[1:]:
            forward = forward.merge(a)
        backward = accs[-1]
        for a in reversed(accs[:-1]):
            backward = backward.merge(a)
        np.testing.assert_array_equal(
            forward.finalize().counts, backward.finalize().counts
        )
        np.testing.assert_array_equal(
            forward.finalize().edges, backward.finalize().edges
        )

    def test_empty_finalize_rejected(self):
        with pytest.raises(ValueError):
            StreamingHistogram(1e-3).finalize()

    def test_mismatched_widths_rejected(self):
        a = StreamingHistogram(1e-3).update([1.0])
        b = StreamingHistogram(2e-3).update([1.0])
        with pytest.raises(ValueError):
            a.merge(b)


class TestFixedWidthHistogramMerge:
    def test_shard_histograms_merge_exactly(self, samples):
        parts = np.array_split(samples, 3)
        merged = fixed_width_histogram(parts[0], 5e-5)
        for part in parts[1:]:
            merged = merged.merge(fixed_width_histogram(part, 5e-5))
        reference = fixed_width_histogram(samples, 5e-5)
        assert merged.total == reference.total
        # the merged grid may extend past the reference by trailing slack
        # bins; occupied bins must coincide exactly
        start = int(round((reference.edges[0] - merged.edges[0]) / 5e-5))
        np.testing.assert_array_equal(
            merged.counts[start : start + reference.n_bins], reference.counts
        )

    def test_incompatible_widths_rejected(self):
        a = fixed_width_histogram([1.0, 2.0], 0.5)
        b = fixed_width_histogram([1.0, 2.0], 0.25)
        with pytest.raises(ValueError):
            a.merge(b)


class TestPercentileSketch:
    def test_uncompacted_sketch_is_bit_identical(self, samples):
        # a capacity covering the stream never compacts: np.percentile exactly
        sketch = PercentileSketch(len(samples))
        for chunk in np.array_split(samples, 7):
            sketch.update(chunk)
        levels = [5.0, 25.0, 50.0, 75.0, 95.0]
        np.testing.assert_array_equal(
            sketch.quantile(levels), np.percentile(samples, levels)
        )
        np.testing.assert_array_equal(sketch.support, np.sort(samples))

    def test_compressed_mode_is_bounded_and_close(self, samples):
        sketch = PercentileSketch(256)
        for chunk in np.array_split(samples, 7):
            sketch.update(chunk)
        assert len(sketch.support) <= 256
        levels = [5.0, 50.0, 95.0]
        estimate = sketch.quantile(levels)
        truth = np.percentile(samples, levels)
        np.testing.assert_allclose(estimate, truth, rtol=0.05)
        # extremes stay exact through compression
        assert sketch.minimum == samples.min()
        assert sketch.maximum == samples.max()

    def test_merge_matches_pooled_update(self, samples):
        parts = np.array_split(samples, 2)
        a = PercentileSketch(512).update(parts[0])
        b = PercentileSketch(512).update(parts[1])
        merged = a.merge(b)
        assert merged.n == len(samples)
        np.testing.assert_allclose(
            merged.quantile(50.0), np.percentile(samples, 50.0), rtol=0.05
        )

    def test_one_dimensional_results_keep_their_shapes(self, samples):
        sketch = PercentileSketch(64).update(samples)
        assert np.ndim(sketch.quantile(50.0)) == 0
        assert sketch.quantile([25.0, 75.0]).shape == (2,)
        assert sketch.support.ndim == 1
        assert isinstance(sketch.minimum, float)

    @pytest.mark.parametrize("capacity", [64, 512], ids=["compacted", "uncompacted"])
    def test_rows_are_independent_streams(self, samples, capacity):
        rows = samples.reshape(20, 250)
        sketch = PercentileSketch(capacity)
        for chunk in np.array_split(rows, 4, axis=1):
            sketch.update(chunk)
        assert sketch.n == 250 and sketch.n_rows == 20
        assert sketch.quantile([5.0, 50.0, 95.0]).shape == (3, 20)
        assert sketch.quantile(50.0).shape == (20,)
        assert sketch.support.shape[0] == 20
        assert sketch.support.shape[1] <= capacity
        np.testing.assert_array_equal(sketch.minimum, rows.min(axis=1))
        np.testing.assert_array_equal(sketch.maximum, rows.max(axis=1))
        for r in (0, 17, 19):
            single = PercentileSketch(capacity)
            for chunk in np.array_split(rows[r], 4):
                single.update(chunk)
            np.testing.assert_array_equal(
                sketch.quantile([5.0, 50.0, 95.0])[:, r],
                single.quantile([5.0, 50.0, 95.0]),
            )

    def test_row_count_mismatch_rejected(self):
        sketch = PercentileSketch(64).update(np.ones((3, 4)))
        with pytest.raises(ValueError):
            sketch.update(np.ones((2, 4)))
        with pytest.raises(ValueError):
            sketch.merge(PercentileSketch(64).update(np.ones((2, 4))))

    def test_empty_sketch_merges_as_identity(self, samples):
        rows = samples.reshape(10, 500)
        sketch = PercentileSketch(64).update(rows)
        empty = PercentileSketch(64)
        for merged in (empty.merge(sketch), sketch.merge(empty)):
            np.testing.assert_array_equal(
                merged.quantile([5.0, 95.0]), sketch.quantile([5.0, 95.0])
            )
        with pytest.raises(ValueError):
            PercentileSketch(64).quantile(50.0)


class TestBoundedTopK:
    def test_exact_while_under_capacity(self):
        pool = BoundedTopK(capacity=16)
        values = [3.0, 1.0, 2.0, 5.0, 4.0]
        pool.update(values, [f"k{v:.0f}" for v in values])
        assert len(pool) == 5 and pool.n == 5
        np.testing.assert_array_equal(pool.values, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert pool.keys == ["k1", "k2", "k3", "k4", "k5"]
        assert pool.nearest(3.4) == "k3"

    def test_compression_pins_extremes_and_bounds_error(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=5000)
        pool = BoundedTopK(capacity=64)
        for chunk in np.array_split(values, 13):
            pool.update(chunk, [None] * chunk.size)
        assert len(pool) == 64 and pool.n == 5000
        assert pool.values[0] == values.min()
        assert pool.values[-1] == values.max()
        # quantile-spaced retention: the pooled median is within one
        # spacing (~ n/capacity ranks) of the true median
        assert float(pool.quantile(50.0)) == pytest.approx(
            float(np.median(values)), abs=np.ptp(values) / 32
        )

    def test_merge_unions_candidates(self):
        left = BoundedTopK(capacity=8).update([1.0, 2.0], ["a", "b"])
        right = BoundedTopK(capacity=32).update([0.5, 3.0], ["c", "d"])
        merged = left.merge(right)
        assert merged.capacity == 8
        assert merged.n == 4
        np.testing.assert_array_equal(merged.values, [0.5, 1.0, 2.0, 3.0])
        assert merged.keys == ["c", "a", "b", "d"]
        # inputs untouched
        assert len(left) == 2 and len(right) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedTopK(capacity=3)
        with pytest.raises(ValueError):
            BoundedTopK().update([1.0, 2.0], ["only-one"])
        with pytest.raises(ValueError):
            BoundedTopK().quantile(50.0)
        assert BoundedTopK().nearest(0.0) is None
        assert BoundedTopK().update([], []).n == 0
