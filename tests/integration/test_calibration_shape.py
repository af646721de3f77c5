"""Integration: the simulated campaigns reproduce the paper's *shapes*.

These tests assert the qualitative claims of §4 (the ones EXPERIMENTS.md
tracks) on session-scale campaigns.  Absolute equality with the paper's
numbers is neither expected nor asserted — bands are deliberately generous so
the tests check mechanisms, not calibration luck.
"""

import numpy as np
import pytest

from repro.analysis import analyze_dataset
from repro.experiments.config import CampaignConfig
from repro.experiments.paper import SECTION4_METRICS, TABLE1_PASS_PERCENT
from repro.experiments.session import CampaignSession


@pytest.fixture(scope="module")
def reports(request):
    datasets = request.getfixturevalue("all_datasets")
    return {
        name: analyze_dataset(ds).report(include_earlybird=False)
        for name, ds in datasets.items()
    }


@pytest.fixture(scope="module")
def miniqmc_multiprocess_dataset():
    """A MiniQMC campaign with enough distinct process populations for the
    coarse-level (application / application-iteration) normality claims.

    The paper's application-level rejection pools 80 process-trial walker
    populations; with only the two processes of the shared smoke fixture the
    between-process variance heterogeneity that drives the rejection is not
    yet resolvable, so this test uses a dozen populations.
    """
    config = CampaignConfig(
        application="miniqmc", trials=2, processes=6, iterations=30, threads=48, seed=424242
    )
    return CampaignSession(config).run().dataset


@pytest.fixture(scope="module")
def minimd_full_run_report():
    """A MiniMD campaign with the paper's 200 iterations, so its 19 warm-up
    iterations are the paper's ~10 % share of the process-iterations.

    In the shared 30-iteration smoke fixture 19 of the 30 iterations are
    warm-up, whose wide settling spread is mostly non-normal, so the Table 1
    pass rate sits on the 50 % the claim must clear: over 30 seeds the
    smallest per-test rate averages 0.58-0.59 with either sampler and is
    0.50 or below on 2 (campaign) and 5 (per-iteration) of them.  At 200
    iterations it is 0.75-0.83 on each of 10 seeds, with either sampler.
    """
    config = CampaignConfig(
        application="minimd",
        trials=1,
        processes=2,
        iterations=200,
        threads=48,
        seed=202304,
    )
    dataset = CampaignSession(config).run().dataset
    return analyze_dataset(dataset).report(include_earlybird=False)


class TestMedianArrivals:
    @pytest.mark.parametrize("application", ["minife", "minimd", "miniqmc"])
    def test_mean_median_within_10_percent_of_paper(self, reports, application):
        measured = reports[application].mean_median_arrival_ms
        expected = SECTION4_METRICS[application]["mean_median_arrival_ms"]
        assert measured == pytest.approx(expected, rel=0.10)


class TestDistributionShape:
    def test_minife_is_left_skewed_with_tiny_iqr(self, reports):
        report = reports["minife"]
        assert report.skew_direction == "early"
        assert report.mean_iqr_ms < 0.5

    def test_miniqmc_has_the_widest_distribution(self, reports):
        assert reports["miniqmc"].mean_iqr_ms > 5 * reports["minife"].mean_iqr_ms
        assert reports["miniqmc"].mean_iqr_ms > 5 * reports["minimd"].mean_iqr_ms
        assert reports["miniqmc"].mean_iqr_ms == pytest.approx(
            SECTION4_METRICS["miniqmc"]["mean_iqr_ms"], rel=0.35
        )

    def test_minimd_two_phase_behaviour(self, all_datasets):
        series = analyze_dataset(all_datasets["minimd"], ["percentiles"])["percentiles"]
        warmup = series.iqr_summary(slice(0, 19))
        steady = series.iqr_summary(slice(19, None))
        assert warmup["mean"] > 3 * steady["mean"]


class TestLaggards:
    def test_minife_laggard_fraction_band(self, reports):
        assert 0.08 <= reports["minife"].laggard_fraction <= 0.40

    def test_minimd_steady_laggards_are_rare(self, all_datasets):
        laggards = analyze_dataset(all_datasets["minimd"], ["laggards"])["laggards"].analysis
        steady = [
            has
            for key, has in zip(laggards.keys, laggards.has_laggard)
            if key[-1] >= 19
        ]
        assert np.mean(steady) < 0.15

    def test_reclaimable_time_ordering(self, reports):
        assert (
            reports["miniqmc"].mean_reclaimable_ms
            > reports["minife"].mean_reclaimable_ms
        )
        assert (
            reports["miniqmc"].mean_reclaimable_ms
            > reports["minimd"].mean_reclaimable_ms
        )


class TestNormalityClasses:
    def test_application_level_rejected_for_minife_and_minimd(self, reports):
        assert reports["minife"].application_level_rejected
        assert reports["minimd"].application_level_rejected

    def test_application_level_rejected_for_miniqmc_with_many_processes(
        self, miniqmc_multiprocess_dataset
    ):
        result = analyze_dataset(miniqmc_multiprocess_dataset, ["normality"])["normality"]
        assert result.application_rejected
        # while the individual process-iterations remain overwhelmingly normal
        rates = result.process_iteration_pass_rates
        assert min(rates.values()) > 0.85

    def test_table1_qualitative_classes(self, reports, minimd_full_run_report):
        """MiniFE ≈ never normal, MiniMD mostly normal, MiniQMC ~95 % normal."""
        minife = reports["minife"].process_iteration_pass_rates
        minimd = minimd_full_run_report.process_iteration_pass_rates
        miniqmc = reports["miniqmc"].process_iteration_pass_rates
        assert max(minife.values()) < 0.10
        assert min(minimd.values()) > 0.50
        assert min(miniqmc.values()) > 0.85

    def test_table1_ordering_matches_paper(self, reports):
        for test_name in ("dagostino", "shapiro_wilk", "anderson_darling"):
            measured = [
                reports[app].process_iteration_pass_rates[test_name]
                for app in ("minife", "minimd", "miniqmc")
            ]
            paper = [
                TABLE1_PASS_PERCENT[app][test_name] / 100.0
                for app in ("minife", "minimd", "miniqmc")
            ]
            assert np.argsort(measured).tolist() == np.argsort(paper).tolist()
