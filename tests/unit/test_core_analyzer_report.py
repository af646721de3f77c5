"""Unit tests for the dataset analysis entry point and the feasibility report."""

import numpy as np
import pytest

from repro.analysis import EarlybirdPass, HistogramPass, analyze_dataset
from repro.core.aggregation import AggregationLevel, aggregate
from repro.core.laggard import IterationClass
from repro.core.report import FeasibilityReport
from repro.core.timing import TimingDataset
from repro.stats.histogram import fixed_width_histogram


@pytest.fixture(scope="module")
def laggard_dataset():
    """Tight arrivals with laggards in exactly half of the process-iterations."""
    rng = np.random.default_rng(42)
    times = np.abs(rng.normal(25e-3, 0.1e-3, size=(2, 2, 10, 32)))
    times[:, :, ::2, 0] += 4e-3  # every even iteration has a +4 ms laggard
    return TimingDataset.from_compute_times(times, {"application": "lagdemo"})


class TestAnalyzeDataset:
    def test_laggard_fraction_matches_construction(self, laggard_dataset):
        results = analyze_dataset(laggard_dataset, ["laggards"])
        assert results["laggards"].laggard_fraction == pytest.approx(0.5)

    def test_percentile_series_in_ms(self, laggard_dataset):
        series = analyze_dataset(laggard_dataset, ["percentiles"])["percentiles"]
        assert series.unit == "ms"
        assert series.mean_median() == pytest.approx(25.0, rel=0.02)

    def test_application_histogram_bin_width(self, laggard_dataset):
        hist = analyze_dataset(laggard_dataset, [HistogramPass(10e-6)])["histogram"]
        assert hist.bin_width == pytest.approx(10e-6)
        assert hist.total == laggard_dataset.n_samples

    def test_exemplar_histogram_of_laggard_class(self, laggard_dataset):
        laggards = analyze_dataset(laggard_dataset, ["laggards"])["laggards"]
        key = laggards.exemplar(IterationClass.LAGGARD)
        assert key is not None
        grouped = aggregate(laggard_dataset, AggregationLevel.PROCESS_ITERATION)
        hist = fixed_width_histogram(grouped.group(key), 50e-6, unit="s")
        assert hist.total == laggard_dataset.n_threads
        # the laggard produces an occupied bin ~4 ms above the main mass
        assert hist.spread() > 3.5e-3

    def test_earlybird_summary_fields(self, laggard_dataset):
        results = analyze_dataset(laggard_dataset, [EarlybirdPass(max_groups=10)])
        summary = results["earlybird"]
        assert set(summary) >= {
            "mean_improvement_s",
            "mean_speedup",
            "mean_hidden_s",
            "mean_potential_overlap_s",
        }
        assert summary["mean_speedup"] >= 1.0

    def test_row_order_does_not_change_products(self, laggard_dataset):
        order = np.random.default_rng(3).permutation(laggard_dataset.n_samples)
        shuffled = TimingDataset(
            {name: laggard_dataset.column(name)[order] for name in laggard_dataset.columns},
            laggard_dataset.metadata,
        )
        expected = analyze_dataset(laggard_dataset)
        actual = analyze_dataset(shuffled)
        assert actual.as_payload() == expected.as_payload()
        assert actual.report().as_dict() == expected.report().as_dict()

    def test_only_requested_passes_run(self, laggard_dataset):
        results = analyze_dataset(laggard_dataset, ["laggards", "percentiles"])
        assert list(results) == ["laggards", "percentiles"]
        assert results.application == "lagdemo"

    def test_unknown_analysis_rejected(self, laggard_dataset):
        with pytest.raises(ValueError):
            analyze_dataset(laggard_dataset, ["no-such-pass"])

    def test_report_needs_the_core_passes(self, laggard_dataset):
        with pytest.raises(ValueError, match="feasibility report needs"):
            analyze_dataset(laggard_dataset, ["percentiles"]).report()


class TestFeasibilityReport:
    def test_report_consistency_with_components(self, laggard_dataset):
        results = analyze_dataset(laggard_dataset)
        report = results.report()
        assert report.application == "lagdemo"
        assert report.n_samples == laggard_dataset.n_samples
        assert report.laggard_fraction == pytest.approx(
            results["laggards"].laggard_fraction
        )
        assert report.mean_reclaimable_ms == pytest.approx(
            results["reclaimable"].mean_reclaimable_s * 1e3
        )
        assert set(report.process_iteration_pass_rates) == {
            "dagostino",
            "shapiro_wilk",
            "anderson_darling",
        }

    def test_recommendation_rules(self):
        base = dict(
            application="x",
            n_samples=1,
            n_trials=1,
            n_processes=1,
            n_iterations=1,
            n_threads=1,
            mean_median_arrival_ms=25.0,
            max_iqr_ms=1.0,
            skew_direction="symmetric",
            laggard_threshold_ms=1.0,
            class_fractions={},
            mean_reclaimable_ms=10.0,
            mean_idle_ratio=0.1,
            application_level_rejected=True,
            process_iteration_pass_rates={},
        )
        wide = FeasibilityReport(mean_iqr_ms=9.0, laggard_fraction=0.0, **base)
        frequent = FeasibilityReport(mean_iqr_ms=0.2, laggard_fraction=0.3, **base)
        rare = FeasibilityReport(mean_iqr_ms=0.2, laggard_fraction=0.05, **base)
        none = FeasibilityReport(mean_iqr_ms=0.2, laggard_fraction=0.0, **base)
        assert "binned" in wide.recommendation
        assert "timeout" in frequent.recommendation
        assert "rare" in rare.recommendation
        assert "unlikely" in none.recommendation

    def test_as_dict_and_summary(self, laggard_dataset):
        report = analyze_dataset(laggard_dataset).report()
        payload = report.as_dict()
        assert payload["application"] == "lagdemo"
        assert "pass_rate_dagostino" in payload
        text = report.summary()
        assert "feasibility report" in text
        assert "recommendation" in text

    def test_report_without_earlybird_skips_model(self, laggard_dataset):
        report = analyze_dataset(laggard_dataset).report(include_earlybird=False)
        assert report.earlybird_buffer_bytes == 0
        assert report.earlybird_mean_speedup == 1.0
