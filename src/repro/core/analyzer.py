"""The high-level analysis facade.

:class:`ThreadTimingAnalyzer` ties every analysis of §4 together for one
application's :class:`~repro.core.timing.TimingDataset`:

>>> analyzer = ThreadTimingAnalyzer(dataset)
>>> analyzer.percentile_series()      # Figures 4 / 6 / 8
>>> analyzer.application_histogram()  # Figure 3
>>> analyzer.normality()              # §4.1 / Table 1
>>> analyzer.laggards()               # §4.2 laggard analysis
>>> analyzer.reclaimable()            # §4.2 reclaimable time / idle ratio
>>> analyzer.earlybird()              # Figures 1 / 2 quantified
>>> analyzer.report()                 # everything above in one object

Since the analysis layer was refactored onto the streaming engine
(:mod:`repro.analysis`), this class is a thin compatibility facade: each
product runs the corresponding registered analysis pass in exact mode over
the dataset as one canonical column block (one slice per (trial,
process), built once and shared by every pass), and :meth:`report` is
assembled by the same
:func:`~repro.analysis.report.assemble_feasibility_report` the streaming
path uses — which is what makes
``CampaignSession.analyze(analyses=...)`` bit-identical to this in-memory
path (pinned-digest tests in ``tests/integration/test_streaming_analysis.py``).
Campaign-scale consumers should prefer the streaming engine; this facade
remains for interactive use on materialised datasets.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.aggregation import (
    AggregationLevel,
    ColumnBlock,
    GroupedSamples,
    ShardSlice,
    aggregate,
    canonical_block,
)
from repro.core.earlybird import EarlyBirdModel
from repro.core.laggard import (
    DEFAULT_LAGGARD_THRESHOLD_S,
    DEFAULT_WIDE_IQR_S,
    IterationClass,
    LaggardAnalysis,
)
from repro.core.normality import NormalityStudy
from repro.core.reclaimable import ReclaimableSummary
from repro.core.report import FeasibilityReport
from repro.core.timing import TimingDataset
from repro.stats.histogram import FixedWidthHistogram, fixed_width_histogram
from repro.stats.percentiles import DEFAULT_PERCENTILES, PercentileSeries


class ThreadTimingAnalyzer:
    """Per-application analysis driver (facade over the analysis passes).

    Parameters
    ----------
    dataset:
        The application's timing dataset (dense).
    laggard_threshold_s:
        Laggard definition, 1 ms in the paper.
    wide_iqr_s:
        IQR above which a process-iteration counts as a "wide" distribution.
    alpha:
        Significance level of the normality battery.
    earlybird_model:
        Model used for the feasibility quantification; a default Omni-Path /
        8 MiB model is created if omitted.
    """

    def __init__(
        self,
        dataset: TimingDataset,
        *,
        laggard_threshold_s: float = DEFAULT_LAGGARD_THRESHOLD_S,
        wide_iqr_s: float = DEFAULT_WIDE_IQR_S,
        alpha: float = 0.05,
        earlybird_model: Optional[EarlyBirdModel] = None,
    ) -> None:
        self.dataset = dataset
        self.laggard_threshold_s = laggard_threshold_s
        self.wide_iqr_s = wide_iqr_s
        self.alpha = alpha
        self.earlybird_model = (
            earlybird_model if earlybird_model is not None else EarlyBirdModel()
        )
        self._grouped: Dict[AggregationLevel, GroupedSamples] = {}
        self._normality: Optional[NormalityStudy] = None
        self._products: Dict[str, object] = {}
        self._block: Optional[ColumnBlock] = None

    # ------------------------------------------------------------------
    # streaming-engine plumbing
    # ------------------------------------------------------------------
    def _dataset_block(self) -> ColumnBlock:
        """The dataset as one canonical column block (built once)."""
        if self._block is None:
            dataset = self.dataset
            columns = {name: dataset.column(name) for name in dataset.columns}
            trial = columns["trial"]
            if np.any(trial[1:] < trial[:-1]):
                order = np.argsort(trial, kind="stable")
                columns = {name: arr[order] for name, arr in columns.items()}
                trial = columns["trial"]
            trials = dataset.trials
            starts = np.searchsorted(trial, trials, side="left")
            stops = np.searchsorted(trial, trials, side="right")
            slices = [
                ShardSlice(int(t), None, int(start), int(stop))
                for t, start, stop in zip(trials, starts, stops)
            ]
            self._block = canonical_block(columns, slices)
        return self._block

    def _run_pass(self, analysis_pass):
        """Run one pass in exact mode over the dataset's block."""
        from repro.analysis import AnalysisContext, run_columnar_analyses

        context = AnalysisContext.from_dataset(self.dataset, exact=True)
        block = self._dataset_block()
        results = run_columnar_analyses(
            [(block.columns, block.slices)], [analysis_pass], context
        )
        return results[analysis_pass.name]

    def _product(self, name: str):
        """Finalized product of one report pass (computed once, cached)."""
        if name not in self._products:
            from repro.analysis import (
                EarlybirdPass,
                LaggardsPass,
                NormalityPass,
                PercentilesPass,
                ReclaimablePass,
            )

            factories = {
                "percentiles": lambda: PercentilesPass(),
                "laggards": lambda: LaggardsPass(
                    threshold_s=self.laggard_threshold_s, wide_iqr_s=self.wide_iqr_s
                ),
                "reclaimable": lambda: ReclaimablePass(),
                "normality": lambda: NormalityPass(alpha=self.alpha),
                "earlybird": lambda: EarlybirdPass(model=self.earlybird_model),
            }
            self._products[name] = self._run_pass(factories[name]())
        return self._products[name]

    # ------------------------------------------------------------------
    # cached building blocks
    # ------------------------------------------------------------------
    def grouped(self, level: AggregationLevel | str) -> GroupedSamples:
        """Samples grouped at one of the paper's aggregation levels (cached)."""
        if isinstance(level, str):
            level = AggregationLevel.from_name(level)
        if level not in self._grouped:
            self._grouped[level] = aggregate(self.dataset, level)
        return self._grouped[level]

    def normality(self) -> NormalityStudy:
        """§4.1 normality study (lazy).

        Returns the full in-memory :class:`NormalityStudy` (all three
        aggregation levels); the report's normality fields come from the
        streaming ``normality`` pass, which agrees bit-for-bit on the levels
        both compute.
        """
        if self._normality is None:
            self._normality = NormalityStudy(self.dataset, alpha=self.alpha)
        return self._normality

    def laggards(self) -> LaggardAnalysis:
        """§4.2 laggard analysis (lazy, via the ``laggards`` pass)."""
        return self._product("laggards").analysis

    def reclaimable(self) -> ReclaimableSummary:
        """§4.2 reclaimable time / idle ratio (via the ``reclaimable`` pass)."""
        return self._product("reclaimable")

    # ------------------------------------------------------------------
    # figure-shaped products
    # ------------------------------------------------------------------
    def percentile_series(
        self, percentiles=DEFAULT_PERCENTILES
    ) -> PercentileSeries:
        """Per-iteration percentile trajectories in ms (Figures 4 / 6 / 8)."""
        if tuple(percentiles) == tuple(DEFAULT_PERCENTILES):
            return self._product("percentiles")
        from repro.analysis import PercentilesPass

        return self._run_pass(PercentilesPass(tuple(percentiles)))

    def application_histogram(self, bin_width_s: float = 10.0e-6) -> FixedWidthHistogram:
        """Application-level arrival histogram (Figure 3; default 10 µs bins)."""
        from repro.analysis import HistogramPass

        return self._run_pass(HistogramPass(bin_width_s))

    def process_iteration_histogram(
        self, key: Tuple[int, int, int], bin_width_s: float = 50.0e-6
    ) -> FixedWidthHistogram:
        """Histogram of one process-iteration (Figures 5 / 7 / 9)."""
        grouped = self.grouped(AggregationLevel.PROCESS_ITERATION)
        return fixed_width_histogram(grouped.group(key), bin_width_s, unit="s")

    def exemplar_histogram(
        self, iteration_class: IterationClass, bin_width_s: float = 50.0e-6
    ) -> Optional[FixedWidthHistogram]:
        """Histogram of the exemplar process-iteration of one class."""
        key = self.laggards().exemplar(iteration_class)
        if key is None:
            return None
        return self.process_iteration_histogram(key, bin_width_s)

    # ------------------------------------------------------------------
    # early-bird quantification
    # ------------------------------------------------------------------
    def earlybird(self, max_groups: Optional[int] = None) -> Dict[str, float]:
        """Mean early-bird gain over a deterministic sample of process-iterations.

        Evaluating all 16 000 groups is unnecessary for a mean; a strided
        subset of ``max_groups`` groups is used (deterministic, no RNG;
        default: the earlybird pass's default subset size).
        """
        if max_groups is None:
            return self._product("earlybird")
        from repro.analysis import EarlybirdPass

        return self._run_pass(
            EarlybirdPass(model=self.earlybird_model, max_groups=max_groups)
        )

    # ------------------------------------------------------------------
    def report(self, include_earlybird: bool = True) -> FeasibilityReport:
        """Produce the full per-application feasibility report."""
        from repro.analysis import (
            REPORT_ANALYSES,
            AnalysisContext,
            assemble_feasibility_report,
        )

        products = {name: self._product(name) for name in REPORT_ANALYSES}
        if include_earlybird:
            products["earlybird"] = self._product("earlybird")
        context = AnalysisContext.from_dataset(self.dataset, exact=True)
        return assemble_feasibility_report(
            products, context, include_earlybird=include_earlybird
        )
