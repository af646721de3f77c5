"""Unit tests for the normality pass: the §4.1 battery at the three
aggregation levels."""

import numpy as np

from repro.analysis import analyze_dataset
from repro.analysis.passes import NormalityPass
from repro.core.timing import TimingDataset
from repro.stats.battery import TEST_NAMES, NormalityBattery
from repro.stats.selection import stratified_subsample


def _normal_dataset(seed=0):
    rng = np.random.default_rng(seed)
    times = np.abs(rng.normal(25e-3, 1e-3, size=(2, 2, 10, 48)))
    return TimingDataset.from_compute_times(times, {"application": "normalapp"})


def _skewed_dataset(seed=1):
    rng = np.random.default_rng(seed)
    times = 20e-3 + rng.exponential(2e-3, size=(2, 2, 10, 48))
    return TimingDataset.from_compute_times(times, {"application": "skewapp"})


def _normality(dataset, **options):
    return analyze_dataset(dataset, [NormalityPass(**options)])["normality"]


class TestNormalityPass:
    def test_normal_data_passes_at_every_level(self):
        result = _normality(_normal_dataset())
        assert not result.application_rejected
        rates = result.process_iteration_pass_rates
        assert all(rates[name] > 0.8 for name in TEST_NAMES)
        counts = result.application_iteration_pass_counts
        assert all(count >= 8 for count in counts.values())

    def test_skewed_data_rejected_at_every_level(self):
        result = _normality(_skewed_dataset())
        assert result.application_rejected
        rates = result.process_iteration_pass_rates
        assert all(rates[name] < 0.2 for name in TEST_NAMES)

    def test_group_counts_cover_every_level(self):
        result = _normality(_normal_dataset())
        assert result.n_groups == 2 * 2 * 10
        assert result.group_size == 48
        assert result.n_iterations == 10

    def test_table1_row_structure(self):
        payload = _normality(_normal_dataset()).as_dict()
        for name in TEST_NAMES:
            assert 0.0 <= payload[f"pass_rate_{name}"] <= 1.0
            assert 0 <= payload[f"app_iteration_passes_{name}"] <= 10
        assert payload["n_iterations"] == 10

    def test_application_level_subsampling_keeps_shapiro_valid(self):
        # the application level pools 2*2*10*48 = 1920 samples < 5000 here,
        # but a tighter cap must still work: the battery runs on the
        # stratified subsample of the pooled samples, whatever their order
        dataset = _normal_dataset()
        result = _normality(dataset, max_application_samples=500)
        expected = NormalityBattery().run(
            stratified_subsample(dataset.compute_times_s[::-1], 500)
        )
        assert expected.group_size == 500
        assert result.application_pass_rates == expected.pass_rates()
        assert result == _normality(dataset, max_application_samples=500)

    def test_application_iteration_level_can_be_skipped(self):
        result = _normality(_normal_dataset(), application_iteration=False)
        assert result.application_iteration_pass_counts is None
        assert "n_iterations" not in result.as_dict()
