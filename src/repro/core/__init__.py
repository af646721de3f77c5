"""The paper's contribution: thread-timing instrumentation and analysis.

Layer map (bottom → top):

* :mod:`~repro.core.timing` — :class:`TimingRecord` / :class:`TimingDataset`,
  the columnar store of per-thread region timings (trial, process, iteration,
  thread, enter/exit timestamps, derived compute time).
* :mod:`~repro.core.instrument` — the Listing-1 analogue: record region
  timings from simulated executions or from real Python thread pools.
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

from repro.core.aggregation import AggregationLevel, GroupedSamples, aggregate
from repro.core.earlybird import EarlyBirdModel, OverlapWindow
from repro.core.endtoend import EndToEndModel, EndToEndProjection, StrategyProjection
from repro.core.instrument import PythonThreadRegion, RegionInstrumenter
from repro.core.laggard import (
    IterationClass,
    LaggardAnalysis,
    LaggardSummary,
    classify_iterations,
)
from repro.core.normality import NormalityStudy
from repro.core.reclaimable import ReclaimableSummary, idle_ratio, reclaimable_time
from repro.core.report import FeasibilityReport
from repro.core.strategies import (
    BinnedStrategy,
    BulkStrategy,
    DeliveryOutcome,
    DeliveryStrategy,
    FineGrainedStrategy,
    StrategyComparison,
    TimeoutStrategy,
    compare_strategies,
)
from repro.core.timing import TimingDataset, TimingRecord

__all__ = [
    "TimingDataset",
    "TimingRecord",
    "RegionInstrumenter",
    "PythonThreadRegion",
    "AggregationLevel",
    "GroupedSamples",
    "aggregate",
    "NormalityStudy",
    "LaggardAnalysis",
    "LaggardSummary",
    "IterationClass",
    "classify_iterations",
    "reclaimable_time",
    "idle_ratio",
    "ReclaimableSummary",
    "EarlyBirdModel",
    "OverlapWindow",
    "EndToEndModel",
    "EndToEndProjection",
    "StrategyProjection",
    "DeliveryStrategy",
    "BulkStrategy",
    "FineGrainedStrategy",
    "BinnedStrategy",
    "TimeoutStrategy",
    "DeliveryOutcome",
    "StrategyComparison",
    "compare_strategies",
    "FeasibilityReport",
]
