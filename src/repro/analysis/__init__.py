"""Streaming analysis engine: pluggable, shard-mergeable analysis passes.

The §4 analyses used to require the entire merged
:class:`~repro.core.timing.TimingDataset` in memory.  This subpackage
refactors them into a registry of :class:`AnalysisPass` objects following a
``prepare → accumulate_columns_split(block) → merge → finalize``
lifecycle over canonical column blocks, so a campaign's column blocks —
serial or parallel — are analysed in one pass without
materialising the merged dataset:

>>> from repro.experiments import CampaignConfig, CampaignSession
>>> session = CampaignSession(CampaignConfig.smoke())
>>> results = session.analyze(analyses=["percentiles", "laggards",
...                                     "reclaimable", "normality"])
>>> results.report(include_earlybird=False)

:func:`analyze_dataset` folds an already-materialised
:class:`~repro.core.timing.TimingDataset` through the same passes (as one
column block), and every driver returns the same product type,
:class:`AnalysisResults`, which the figure and table generators of
:mod:`repro.experiments` read.

Built-in passes (``available_analyses()``): ``percentiles``, ``histogram``,
``normality``, ``laggards``, ``reclaimable``, ``earlybird``.  Custom passes
subclass :class:`AnalysisPass` and register with :func:`register_analysis`
— the third registry of the campaign layer, after execution backends and
scenarios.

Each §4 product has one implementation, its pass, and every pass is
bit-identical to the same statistics computed over the dense grouping of
:func:`~repro.core.aggregation.aggregate`, in memory and out of core.  A
campaign analysed through the shard store keeps re-readable handles on its
samples rather than the samples themselves, and the finalizes read them
back one bounded batch of iterations at a time.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.analysis.base": (
        "AnalysisContext",
        "AnalysisPass",
        "analysis_title",
        "available_analyses",
        "get_analysis",
        "register_analysis",
        "resolve_analyses",
        "unregister_analysis",
    ),
    "repro.analysis.engine": (
        "AnalysisResults",
        "ColumnarAnalyzer",
        "analyze_dataset",
        "product_payload",
        "run_campaign_analyses",
        "run_columnar_analyses",
    ),
    "repro.analysis.passes": (
        "DEFAULT_EARLYBIRD_MAX_GROUPS",
        "EarlybirdPass",
        "HistogramPass",
        "LaggardsPass",
        "LaggardsResult",
        "NormalityPass",
        "NormalityResult",
        "PercentilesPass",
        "ReclaimablePass",
    ),
    "repro.analysis.report": ("REPORT_ANALYSES", "assemble_feasibility_report"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
