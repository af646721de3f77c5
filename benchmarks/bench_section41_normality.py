"""§4.1 (S2) — application-level and application-iteration-level normality.

Paper claims:

* At the application level (all samples pooled) every test rejects normality
  for every application.
* At the application-iteration level MiniFE and MiniMD reject for all 200
  iterations; MiniQMC has a handful (8/200) of iterations that pass
  D'Agostino only.

At benchmark scale (2 trials × 2 processes) the application-iteration groups
have 192 samples instead of 3840, so the assertion is the qualitative one:
coarse aggregation rejects far more often than the process-iteration level,
and MiniFE/MiniMD application-level pooling is always rejected.  The MiniQMC
claim runs on a dozen walker populations (2 trials x 6 processes), like
``tests/integration/test_calibration_shape.py``: the coarse levels reject
because they pool populations of different variance, and four populations
do not resolve that (see ``miniqmc_populations_ds``).
"""

import time

import numpy as np
import pytest

from repro.analysis import analyze_dataset
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession
from repro.stats._normal import ndtr
from repro.stats.moments import skewness_kurtosis

#: the battery's moment kernel must stay at least this many times faster
#: than the ``** 3`` / ``** 4`` formulation on the paper-scale
#: application-iteration matrix (measured 17-21x on numpy 2.4, x86-64)
MIN_MOMENT_KERNEL_SPEEDUP = 5.0

#: the numpy ``ndtr`` may cost at most this many times ``scipy.special.ndtr``
#: on the sorted paper-scale process-iteration matrix (measured 3-4x on
#: numpy 2.4 / SciPy 1.17, x86-64 with AVX-512)
MAX_NDTR_SLOWDOWN = 6.0


def _best_time(kernel, matrix, repeats: int = 7) -> float:
    """Best of ``repeats`` timed calls after one warm-up call."""
    kernel(matrix)
    elapsed = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        kernel(matrix)
        elapsed = min(elapsed, time.perf_counter() - start)
    return elapsed


def _study_all_levels(dataset):
    """The shipped normality pass: all three §4.1 levels in one fold."""
    return analyze_dataset(dataset, ["normality"])["normality"]


def test_section41_minife(benchmark, minife_ds):
    study = benchmark(_study_all_levels, minife_ds)
    assert study.application_rejected
    passes = study.application_iteration_pass_counts
    assert max(passes.values()) <= 5  # essentially never normal when pooled


def test_section41_minimd(benchmark, minimd_ds):
    study = benchmark(_study_all_levels, minimd_ds)
    assert study.application_rejected
    # pooling across processes rejects more often than single process teams
    pooled = study.application_iteration_pass_counts["dagostino"] / 200.0
    per_team = study.process_iteration_pass_rates["dagostino"]
    assert pooled < per_team


@pytest.fixture(scope="module")
def miniqmc_populations_ds():
    """Benchmark-scale MiniQMC with 12 walker populations (2 trials x 6
    processes x 200 iterations).

    With the benchmark-scale 4 populations the pooled Shapiro-Wilk pass
    rate beats the per-process-iteration rate on 1-2 of 10 seeds with
    either sampler (e.g. 0.975 vs 0.964); with 12 it stays below it on
    each of 10 seeds (pooled 0.55-0.93 vs 0.94-0.96), with either sampler.
    """
    config = CampaignConfig.benchmark_scale("miniqmc").scaled(processes=6)
    return CampaignSession(config).run().dataset


def test_section41_miniqmc(benchmark, miniqmc_populations_ds):
    study = benchmark(_study_all_levels, miniqmc_populations_ds)
    rates = study.process_iteration_pass_rates
    assert min(rates.values()) > 0.85
    # the coarse levels pool heterogeneous walker populations and therefore
    # pass (much) less often than the per-process-iteration level
    pooled = study.application_iteration_pass_counts["shapiro_wilk"] / 200.0
    assert pooled < rates["shapiro_wilk"]


def _pow_skewness_kurtosis(matrix):
    """The moment kernel written with ``**``: float ``** 3`` / ``** 4`` go
    through libm ``pow`` (``** 2`` is a plain square)."""
    deviations = matrix - matrix.mean(axis=-1, keepdims=True)
    m2 = np.mean(deviations**2, axis=-1)
    m3 = np.mean(deviations**3, axis=-1)
    m4 = np.mean(deviations**4, axis=-1)
    safe_m2 = np.where(m2 > 0, m2, 1.0)
    b1 = np.where(m2 > 0, m3 / np.power(safe_m2, 1.5), 0.0)
    b2 = np.where(m2 > 0, m4 / (safe_m2 * safe_m2), 0.0)
    return b1, b2


def test_moment_kernel_speedup_guard():
    """Regression guard for the normality battery's moment kernel: on the
    paper-scale application-iteration matrix (200 iterations x 3840
    samples) ``skewness_kurtosis`` must stay >= 5x the ``**``
    formulation.  A ratio of two kernels timed back to back in one process
    is robust on noisy runners where absolute times are not."""
    rng = np.random.default_rng(20230421)
    matrix = 25.0e-3 + rng.gamma(2.0, 1.0e-4, size=(200, 3840))

    expected = _pow_skewness_kurtosis(matrix)
    for mine, reference in zip(skewness_kurtosis(matrix), expected):
        np.testing.assert_allclose(mine, reference, rtol=1e-12)
    fast = _best_time(skewness_kurtosis, matrix)
    slow = _best_time(_pow_skewness_kurtosis, matrix)
    speedup = slow / fast
    assert speedup >= MIN_MOMENT_KERNEL_SPEEDUP, (
        f"skewness_kurtosis is only {speedup:.1f}x the ** formulation "
        f"({fast * 1e3:.1f} ms vs {slow * 1e3:.1f} ms on 200x3840); the "
        f"multiply-based moment kernel has regressed below the "
        f"{MIN_MOMENT_KERNEL_SPEEDUP}x guard"
    )


def test_ndtr_cost_guard():
    """Regression guard for the battery's numpy normal CDF: on the sorted,
    standardized paper-scale process-iteration matrix (16 000 groups x 48
    threads, what Anderson–Darling evaluates) the chunked Cody kernel must
    stay within 6x ``scipy.special.ndtr``, timed back to back."""
    from scipy import special

    rng = np.random.default_rng(20230421)
    matrix = np.sort(25.0e-3 + rng.gamma(2.0, 1.0e-4, size=(16000, 48)), axis=-1)
    matrix -= matrix.mean(axis=-1, keepdims=True)
    matrix /= matrix.std(axis=-1, ddof=1, keepdims=True)
    np.testing.assert_allclose(ndtr(matrix), special.ndtr(matrix), rtol=1e-13)
    ours = _best_time(ndtr, matrix)
    theirs = _best_time(special.ndtr, matrix)
    slowdown = ours / theirs
    assert slowdown <= MAX_NDTR_SLOWDOWN, (
        f"numpy ndtr is {slowdown:.1f}x scipy.special.ndtr ({ours * 1e3:.1f} ms "
        f"vs {theirs * 1e3:.1f} ms on 16000x48); the chunked kernel has "
        f"regressed past the {MAX_NDTR_SLOWDOWN}x guard"
    )
