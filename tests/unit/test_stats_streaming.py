"""Unit tests for the mergeable streaming histogram."""

import numpy as np
import pytest

from repro.stats.histogram import fixed_width_histogram
from repro.stats.streaming import StreamingHistogram


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(11)
    return rng.gamma(2.0, 1.0e-3, size=5000)


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
