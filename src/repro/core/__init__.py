"""The paper's contribution: thread-timing instrumentation and analysis.

Layer map (bottom → top):

* :mod:`~repro.core.timing` — :class:`TimingDataset`, the columnar store of
  per-thread region timings (trial, process, iteration, thread, derived
  compute time).
* :mod:`~repro.core.instrument` — the Listing-1 analogue: measure region
  compute times on a real Python thread pool.
* :mod:`~repro.core.aggregation` — the three aggregation levels of §4.1
  (application, application-iteration, process-iteration): the column
  blocks every analysis folds, and :func:`aggregate` for group access to
  a materialised dataset.
* :mod:`~repro.core.laggard` — laggard-thread classes and the per-group
  :class:`LaggardAnalysis` (Figures 5/7, the 22.4 % / 4.8 % laggard rates).
* :mod:`~repro.core.reclaimable` — reclaimable time and idle-ratio metrics.
* :mod:`~repro.core.earlybird` / :mod:`~repro.core.strategies` — the
  early-bird feasibility model: what the measured arrival distributions imply
  for partitioned-communication delivery strategies (Figures 1/2, §5).
* :mod:`~repro.core.report` — :class:`FeasibilityReport`, the
  per-application summary.

Each §4 product — the normality battery at the three levels (Table 1 and
the §4.1 discussion), the laggard and the reclaimable-time metrics — is
computed once, by a registered pass of :mod:`repro.analysis`, on the
primitives here (:func:`~repro.analysis.analyze_dataset` for a
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
    "repro.core.laggard": ("IterationClass", "LaggardAnalysis"),
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
