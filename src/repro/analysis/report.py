"""Assemble a :class:`~repro.core.report.FeasibilityReport` from pass outputs.

The report is assembled from the finalized products of the
``percentiles``, ``laggards``, ``reclaimable``, ``normality`` and
(optionally) ``earlybird`` passes; every analysis driver
(:func:`~repro.analysis.engine.analyze_dataset`,
:meth:`CampaignSession.analyze`, the fused campaign route) ends up here,
which is what makes their reports field-for-field identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.analysis.base import AnalysisContext
from repro.core.laggard import IterationClass
from repro.core.report import FeasibilityReport

if TYPE_CHECKING:  # pragma: no cover - static typing only
    pass

#: passes the feasibility report is assembled from (earlybird is optional)
REPORT_ANALYSES = ("percentiles", "laggards", "reclaimable", "normality")


def assemble_feasibility_report(
    products: Mapping[str, object],
    context: AnalysisContext,
    *,
    include_earlybird: bool = True,
) -> FeasibilityReport:
    """Build the per-application feasibility report from pass products.

    ``products`` must contain the :data:`REPORT_ANALYSES` outputs; the
    early-bird block is filled when ``include_earlybird`` and an
    ``earlybird`` product is present, and zeroed otherwise.
    """
    missing = [name for name in REPORT_ANALYSES if name not in products]
    if missing:
        raise ValueError(
            f"feasibility report needs the {missing} analyses; run them "
            f"alongside the others (got {sorted(products)})"
        )
    series = products["percentiles"]
    laggards = products["laggards"]
    reclaimable = products["reclaimable"]
    normality = products["normality"]
    iqr_stats = series.iqr_summary()
    earlybird = products.get("earlybird") if include_earlybird else None
    return FeasibilityReport(
        application=context.application,
        n_samples=context.n_samples,
        n_trials=context.n_trials,
        n_processes=context.n_processes,
        n_iterations=context.n_iterations,
        n_threads=context.n_threads,
        mean_median_arrival_ms=series.mean_median(),
        mean_iqr_ms=iqr_stats["mean"],
        max_iqr_ms=iqr_stats["max"],
        skew_direction=series.skew_direction(),
        laggard_fraction=laggards.laggard_fraction,
        laggard_threshold_ms=laggards.threshold_s * 1e3,
        class_fractions={
            cls.value: laggards.class_fraction(cls) for cls in IterationClass
        },
        mean_reclaimable_ms=reclaimable.mean_reclaimable_s * 1e3,
        mean_idle_ratio=reclaimable.mean_idle_ratio,
        application_level_rejected=normality.application_rejected,
        process_iteration_pass_rates=dict(normality.process_iteration_pass_rates),
        earlybird_mean_improvement_us=(
            earlybird["mean_improvement_s"] * 1e6 if earlybird else 0.0
        ),
        earlybird_mean_speedup=(
            earlybird["mean_speedup"] if earlybird else 1.0
        ),
        earlybird_buffer_bytes=(
            int(earlybird["buffer_bytes"]) if earlybird else 0
        ),
        extras={"metadata": dict(context.metadata)},
    )
