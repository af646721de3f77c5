"""Statistical machinery for thread-arrival-time analysis.

The paper runs three normality tests — D'Agostino's K² omnibus test,
Shapiro–Wilk and Anderson–Darling — on 16 000 process-iteration groups per
application (48 samples each) plus coarser aggregations.  SciPy implements all
three, but only one sample at a time; this subpackage provides **batch
vectorised** implementations (one call handles a ``(groups, n)`` matrix) that
are validated against SciPy in the test suite and used to regenerate Table 1
at full paper scale in seconds.  They need numpy only: the normal CDF, its
inverse and the χ²₂ survival function come from :mod:`repro.stats._normal`,
and SciPy is the test suite's oracle, not a dependency.

Public entry points
-------------------
* :func:`~repro.stats.dagostino.dagostino_k2` — K² omnibus test.
* :func:`~repro.stats.shapiro.shapiro_wilk` — Shapiro–Wilk W (Royston AS R94).
* :func:`~repro.stats.anderson.anderson_darling` — Anderson–Darling A².
* :class:`~repro.stats.battery.NormalityBattery` — runs all three and reports
  pass rates the way Table 1 does.
* :mod:`~repro.stats.percentiles` / :mod:`~repro.stats.histogram` — the
  percentile-plot and fixed-bin-width histogram primitives behind Figures 3–9.
* :mod:`~repro.stats.streaming` — the mergeable lattice histogram behind
  the histogram pass of :mod:`repro.analysis`.
"""

from repro.stats.anderson import AndersonDarlingResult, anderson_darling
from repro.stats.battery import NormalityBattery, NormalityReport, TestOutcome
from repro.stats.dagostino import DAgostinoResult, dagostino_k2, kurtosis_test, skewness_test
from repro.stats.histogram import FixedWidthHistogram, fixed_width_histogram
from repro.stats.moments import kurtosis, skewness, standardize
from repro.stats.percentiles import PercentileSeries, iqr, percentile_table
from repro.stats.shapiro import ShapiroWilkResult, shapiro_wilk
from repro.stats.streaming import StreamingHistogram

__all__ = [
    "dagostino_k2",
    "skewness_test",
    "kurtosis_test",
    "DAgostinoResult",
    "shapiro_wilk",
    "ShapiroWilkResult",
    "anderson_darling",
    "AndersonDarlingResult",
    "NormalityBattery",
    "NormalityReport",
    "TestOutcome",
    "skewness",
    "kurtosis",
    "standardize",
    "iqr",
    "percentile_table",
    "PercentileSeries",
    "fixed_width_histogram",
    "FixedWidthHistogram",
    "StreamingHistogram",
]
