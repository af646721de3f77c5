"""Unit tests for the normality battery (Table 1 machinery)."""

import numpy as np
import pytest

from repro.stats.battery import TEST_NAMES, NormalityBattery


class TestNormalityBattery:
    def test_runs_all_three_tests_by_default(self, rng):
        report = NormalityBattery().run(rng.normal(size=(20, 48)))
        assert set(report.outcomes) == set(TEST_NAMES)
        assert report.n_groups == 20
        assert report.group_size == 48

    def test_pass_rates_high_for_normal_low_for_skewed(self, rng):
        battery = NormalityBattery()
        normal = battery.run(rng.normal(size=(200, 48)))
        skewed = battery.run(rng.exponential(size=(200, 48)))
        for name in TEST_NAMES:
            assert normal.pass_rate(name) > 0.85
            assert skewed.pass_rate(name) < 0.05
        assert skewed.rejected_all() or max(skewed.pass_rates().values()) < 0.05

    @pytest.mark.parametrize("shape", [(40, 48), (48,)], ids=["batch", "one-group"])
    def test_presorted_input_changes_nothing(self, shape):
        x = 25e-3 + np.random.default_rng(7).gamma(2.0, 1e-4, size=shape)
        battery = NormalityBattery()
        fresh = battery.run(x)
        shared = battery.run(x, sorted_x=np.sort(x, axis=-1))
        for name in TEST_NAMES:
            for field in ("statistic", "pvalue", "passed"):
                np.testing.assert_array_equal(
                    getattr(shared.outcomes[name], field),
                    getattr(fresh.outcomes[name], field),
                )

    def test_single_group_input(self, rng):
        report = NormalityBattery().run(rng.normal(size=48))
        assert report.n_groups == 1

    def test_table_row_is_percentage(self, rng):
        report = NormalityBattery().run(rng.normal(size=(50, 48)))
        row = report.table_row("MiniX")
        assert row["application"] == "MiniX"
        assert all(0.0 <= row[label] <= 100.0 for label in row if label != "application")

    def test_subset_of_tests(self, rng):
        battery = NormalityBattery(tests=["dagostino"])
        report = battery.run(rng.normal(size=(10, 48)))
        assert set(report.outcomes) == {"dagostino"}

    def test_summary_mentions_every_test(self, rng):
        text = NormalityBattery().run(rng.normal(size=(10, 48))).summary()
        assert "D'Agostino" in text and "Shapiro-Wilk" in text and "Anderson-Darling" in text

    def test_invalid_parameters_rejected(self, rng):
        with pytest.raises(ValueError):
            NormalityBattery(alpha=0.0)
        with pytest.raises(ValueError):
            NormalityBattery(tests=["nope"])
        with pytest.raises(ValueError):
            NormalityBattery().run(rng.normal(size=(5, 4)))
        with pytest.raises(ValueError):
            NormalityBattery().run(rng.normal(size=(2, 3, 4)))
