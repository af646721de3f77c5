"""Unit tests for laggard detection and reclaimable-time metrics, and the
laggards and reclaimable passes that report them."""

import numpy as np
import pytest

from repro.analysis import analyze_dataset
from repro.analysis.passes import LaggardsPass
from repro.core.aggregation import AggregationLevel, aggregate
from repro.core.laggard import IterationClass
from repro.core.reclaimable import (
    idle_ratio,
    reclaim_and_idle_ratio,
    reclaimable_time,
)
from repro.core.timing import TimingDataset


def _dataset_with_known_laggards():
    """1 trial, 1 process, 4 iterations, 8 threads with controlled patterns."""
    base = np.full((1, 1, 4, 8), 25.0e-3)
    base[0, 0, 1, 7] += 5.0e-3   # iteration 1: one clear laggard (+5 ms)
    base[0, 0, 2, :] += np.linspace(0.0, 8.0e-3, 8)  # iteration 2: wide spread
    base[0, 0, 3, 0] -= 2.0e-3   # iteration 3: an early thread, no laggard
    return TimingDataset.from_compute_times(base, {"application": "synthetic"})


def _laggards(dataset, **options):
    return analyze_dataset(dataset, [LaggardsPass(**options)])["laggards"]


def _laggard_analysis(dataset, **options):
    return _laggards(dataset, **options).analysis


class TestLaggardAnalysis:
    def test_laggard_detection_threshold(self):
        analysis = _laggard_analysis(_dataset_with_known_laggards())
        flagged = {key[-1] for key, has in zip(analysis.keys, analysis.has_laggard) if has}
        assert 1 in flagged          # the +5 ms thread
        assert 0 not in flagged      # perfectly balanced iteration
        assert 3 not in flagged      # early arrival is not a laggard

    def test_classification(self):
        analysis = _laggard_analysis(_dataset_with_known_laggards())
        class_of = {key[-1]: cls for key, cls in zip(analysis.keys, analysis.classes)}
        assert class_of[0] is IterationClass.NO_LAGGARD
        assert class_of[1] is IterationClass.LAGGARD
        assert class_of[2] is IterationClass.WIDE
        assert class_of[3] is IterationClass.NO_LAGGARD

    def test_fractions_and_counts_consistent(self):
        analysis = _laggard_analysis(_dataset_with_known_laggards())
        counts = analysis.class_counts()
        assert sum(counts.values()) == analysis.n_groups
        assert analysis.laggard_fraction == pytest.approx(
            np.mean(analysis.has_laggard)
        )

    def test_exemplar_returns_group_of_requested_class(self):
        analysis = _laggard_analysis(_dataset_with_known_laggards())
        key = analysis.exemplar(IterationClass.LAGGARD)
        assert key is not None and key[-1] == 1
        assert analysis.exemplar(IterationClass.WIDE)[-1] == 2

    def test_exemplar_missing_class_returns_none(self):
        times = np.full((1, 1, 2, 4), 10.0e-3)
        ds = TimingDataset.from_compute_times(times, {"application": "flat"})
        assert _laggard_analysis(ds).exemplar(IterationClass.LAGGARD) is None

    def test_summary_units(self):
        payload = _laggards(_dataset_with_known_laggards()).as_dict()
        assert payload["threshold_ms"] == pytest.approx(1.0)
        assert payload["mean_median_ms"] == pytest.approx(25.0, rel=0.05)

    def test_custom_threshold_changes_sensitivity(self):
        ds = _dataset_with_known_laggards()
        strict = _laggard_analysis(ds, threshold_s=10.0e-3)
        assert strict.laggard_fraction == 0.0

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            LaggardsPass(threshold_s=0.0)


class TestReclaimable:
    def test_reclaimable_time_formula(self):
        arrivals = np.array([[1.0, 2.0, 4.0]])
        assert reclaimable_time(arrivals)[0] == pytest.approx((4 - 1) + (4 - 2))

    def test_idle_ratio_formula(self):
        arrivals = np.array([[1.0, 2.0, 4.0]])
        expected = 5.0 / (3 * 4.0)
        assert idle_ratio(arrivals)[0] == pytest.approx(expected)

    def test_one_pass_helper_is_bit_identical(self):
        arrivals = 25e-3 + np.random.default_rng(3).gamma(2.0, 1e-4, size=(64, 48))
        arrivals[0] = 0.0
        reclaim, ratio = reclaim_and_idle_ratio(arrivals)
        np.testing.assert_array_equal(reclaim, reclaimable_time(arrivals))
        maxima = arrivals.max(axis=-1)
        with np.errstate(invalid="ignore"):
            expected = np.where(maxima > 0, reclaim / (48 * maxima), 0.0)
        np.testing.assert_array_equal(ratio, expected)

    def test_identical_arrivals_have_zero_idle(self):
        arrivals = np.full((5, 8), 3.0)
        np.testing.assert_array_equal(reclaimable_time(arrivals), 0.0)
        np.testing.assert_array_equal(idle_ratio(arrivals), 0.0)

    def test_single_laggard_dominates_reclaimable_time(self):
        tight = np.full(48, 25.0e-3)
        with_laggard = tight.copy()
        with_laggard[-1] += 5.0e-3
        assert reclaimable_time(with_laggard)[0] == pytest.approx(47 * 5.0e-3)

    def test_idle_ratio_bounded(self, rng):
        arrivals = rng.uniform(1.0, 2.0, size=(100, 48))
        ratios = idle_ratio(arrivals)
        assert np.all(ratios >= 0.0) and np.all(ratios < 1.0)

    def test_summary_over_dataset(self):
        summary = analyze_dataset(_dataset_with_known_laggards(), ["reclaimable"])[
            "reclaimable"
        ]
        assert summary.n_groups == 4
        assert summary.n_threads == 8
        assert summary.max_reclaimable_s >= summary.mean_reclaimable_s
        assert summary.mean_per_thread_idle_s == pytest.approx(
            summary.mean_reclaimable_s / 8
        )

    def test_per_group_metrics_order_the_known_iterations(self):
        groups = aggregate(_dataset_with_known_laggards(), AggregationLevel.PROCESS_ITERATION)
        reclaim, ratio = reclaim_and_idle_ratio(groups.values)
        assert reclaim.shape == (4,)
        assert reclaim[1] > reclaim[0]
        assert ratio[2] > ratio[0]
