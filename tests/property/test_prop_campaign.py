"""Distributional agreement of the campaign and vectorized backends.

The whole-campaign tensor backend draws its randomness shard-major across
the entire campaign — a different order than the per-iteration vectorized
path — so bit-identity is impossible by design.  What must hold, over every application, schedule
clause and noise profile, is that it samples the *same distribution*: same
location, same spread, and no detectable distributional drift under a
two-sample Kolmogorov-Smirnov test.

Campaign pairs are cached per combination (Hypothesis revisits examples
while shrinking) and the test is derandomized so CI never sees a fresh
random draw: every assertion below is deterministic.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.experiments.backends import get_backend
from repro.experiments.config import CampaignConfig

APPLICATIONS = ("minife", "minimd", "miniqmc")
SCHEDULES = (None, "static,8", "dynamic,4", "guided")
NOISE_PROFILES = ("default", "none", "heavy-tail", "bursty")

#: two-sided KS p-value below which we call the distributions different.
#: Both samples have ~1.5k points; for identical distributions a false
#: positive at this threshold is a 1-in-10^4 event per example, and the
#: test is derandomized, so a pass is stable.
KS_ALPHA = 1.0e-4


@lru_cache(maxsize=None)
def _campaign_pair(application: str, schedule, profile: str):
    config = CampaignConfig(
        application=application,
        trials=1,
        processes=2,
        iterations=48,
        threads=16,
        seed=1303,
        schedule=schedule,
    )
    config.machine = config.machine.with_noise_profile(profile)
    samples = {}
    for backend in ("vectorized", "campaign"):
        dataset = get_backend(backend).run(config.with_backend(backend))
        samples[backend] = np.asarray(dataset.compute_times_s)
    return samples["vectorized"], samples["campaign"]


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    application=st.sampled_from(APPLICATIONS),
    schedule=st.sampled_from(SCHEDULES),
    profile=st.sampled_from(NOISE_PROFILES),
)
def test_campaign_agrees_with_vectorized_in_distribution(
    application, schedule, profile
):
    vectorized, campaign = _campaign_pair(application, schedule, profile)
    assert vectorized.shape == campaign.shape
    assert np.all(np.isfinite(campaign)) and np.all(campaign >= 0)
    # location: medians within a percent of each other (medians are robust
    # even under the heavy-tail profile's infinite-variance bursts); the
    # absolute floor covers degenerate schedules where most threads draw no
    # work and the median sits on near-zero noise delays
    median_v, median_c = np.median(vectorized), np.median(campaign)
    assert median_c == pytest.approx(median_v, rel=1e-2, abs=5e-5)
    # spread: robust IQR within 15 %
    iqr_v = np.subtract(*np.percentile(vectorized, [75, 25]))
    iqr_c = np.subtract(*np.percentile(campaign, [75, 25]))
    assert iqr_c == pytest.approx(iqr_v, rel=0.15, abs=5e-5)
    # whole-shape agreement: two-sample KS must not reject
    result = scipy_stats.ks_2samp(vectorized, campaign)
    assert result.pvalue > KS_ALPHA, (
        f"KS rejects campaign ~ vectorized for {application} "
        f"(schedule={schedule}, profile={profile}): "
        f"D={result.statistic:.4f}, p={result.pvalue:.2e}"
    )


def test_noise_off_paths_are_deterministic_and_equal():
    """Without noise or application randomness the two backends must agree
    exactly: MiniFE's costs are deterministic once stragglers are the only
    application-level randomness — disable noise and compare the paths on
    the schedule fold alone."""
    config = CampaignConfig(
        application="minife", trials=1, processes=1, iterations=6, threads=16,
        seed=9,
    )
    config.machine = config.machine.without_noise()
    vectorized = get_backend("vectorized").run(config.with_backend("vectorized"))
    campaign = get_backend("campaign").run(config.with_backend("campaign"))
    v = vectorized.compute_times_s.reshape(6, 16)
    c = campaign.compute_times_s.reshape(6, 16)
    # rows without a straggler event carry the pure schedule fold: identical
    base_v = np.min(v, axis=0)
    base_c = np.min(c, axis=0)
    np.testing.assert_allclose(base_c, base_v, rtol=0, atol=0)

