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

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.stats.anderson": ("AndersonDarlingResult", "anderson_darling"),
    "repro.stats.battery": ("NormalityBattery", "NormalityReport", "TestOutcome"),
    "repro.stats.dagostino": (
        "DAgostinoResult",
        "dagostino_k2",
        "kurtosis_test",
        "skewness_test",
    ),
    "repro.stats.histogram": ("FixedWidthHistogram", "fixed_width_histogram"),
    "repro.stats.moments": ("kurtosis", "skewness", "standardize"),
    "repro.stats.percentiles": ("PercentileSeries", "iqr", "percentile_table"),
    "repro.stats.shapiro": ("ShapiroWilkResult", "shapiro_wilk"),
    "repro.stats.streaming": ("StreamingHistogram",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
