"""The paper's contribution: thread-timing instrumentation and analysis.

Layer map (bottom → top):

* :mod:`~repro.core.timing` — :class:`TimingDataset`, the columnar store of
  per-thread region timings (trial, process, iteration, thread, derived
  compute time).
* :mod:`~repro.core.instrument` — the Listing-1 analogue: measure region
  compute times on a real Python thread pool.
* :mod:`~repro.core.aggregation` — the three aggregation levels of §4.1
  (application, application-iteration, process-iteration).
* :mod:`~repro.core.normality` — the three-test battery applied per level
  (Table 1 and the §4.1 discussion).
* :mod:`~repro.core.laggard` — laggard-thread detection and iteration
  classification (Figures 5/7, the 22.4 % / 4.8 % laggard rates).
* :mod:`~repro.core.reclaimable` — reclaimable time and idle-ratio metrics.
* :mod:`~repro.core.earlybird` / :mod:`~repro.core.strategies` — the
  early-bird feasibility model: what the measured arrival distributions imply
  for partitioned-communication delivery strategies (Figures 1/2, §5).
* :mod:`~repro.core.report` — :class:`FeasibilityReport`, the
  per-application summary.

The dense modules here (:func:`aggregate`, :class:`NormalityStudy`, the
laggard and reclaimable summaries) are the reference oracles and numeric
primitives; campaign analyses run as registered passes in
:mod:`repro.analysis` (:func:`~repro.analysis.analyze_dataset` for a
materialised dataset).
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.core.aggregation": ("AggregationLevel", "GroupedSamples", "aggregate"),
    "repro.core.earlybird": ("EarlyBirdModel", "OverlapWindow"),
    "repro.core.endtoend": (
        "EndToEndModel",
        "EndToEndProjection",
        "StrategyProjection",
    ),
    "repro.core.instrument": ("PythonThreadRegion",),
    "repro.core.laggard": (
        "IterationClass",
        "LaggardAnalysis",
        "LaggardSummary",
        "classify_iterations",
    ),
    "repro.core.normality": ("NormalityStudy",),
    "repro.core.reclaimable": ("ReclaimableSummary", "idle_ratio", "reclaimable_time"),
    "repro.core.report": ("FeasibilityReport",),
    "repro.core.strategies": (
        "BinnedStrategy",
        "BulkStrategy",
        "DeliveryOutcome",
        "DeliveryStrategy",
        "FineGrainedStrategy",
        "StrategyComparison",
        "TimeoutStrategy",
        "compare_strategies",
    ),
    "repro.core.timing": ("TimingDataset",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
