"""Table generators for the evaluation section.

* :func:`table1` — the paper's Table 1 (process-iteration normality pass
  percentages per application and test), with the paper's values alongside.
* :func:`section4_metrics_table` — the §4.2 scalar metrics (median arrival,
  IQR, laggard fraction, reclaimable time, idle ratio) per application,
  paper vs measured.
* :func:`section41_normality_table` — the §4.1 coarse-level outcomes.
* :func:`minimd_phase_table` — the §4.2.2 MiniMD warm-up/steady IQR split.

Every generator reads per-application
:class:`~repro.analysis.AnalysisResults` (``CampaignSession.analyze`` or
:func:`~repro.analysis.analyze_dataset`), so no table forces a dataset
merge.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.engine import AnalysisResults
from repro.experiments.paper import SECTION4_METRICS, SECTION41_NORMALITY, TABLE1_PASS_PERCENT
from repro.stats.battery import TEST_LABELS, TEST_NAMES

APP_LABELS = {"minife": "MiniFE", "minimd": "MiniMD", "miniqmc": "MiniQMC"}


def _label(name: str) -> str:
    return APP_LABELS.get(name, name)


def table1(
    results: Dict[str, AnalysisResults], *, include_paper: bool = True
) -> List[Dict[str, object]]:
    """Rows of Table 1: measured pass percentages (and the paper's)."""
    rows: List[Dict[str, object]] = []
    for name, source in results.items():
        rates = source["normality"].process_iteration_pass_rates
        row: Dict[str, object] = {"application": _label(name)}
        for test in TEST_NAMES:
            row[f"{TEST_LABELS[test]} (measured %)"] = 100.0 * rates[test]
            if include_paper and name in TABLE1_PASS_PERCENT:
                row[f"{TEST_LABELS[test]} (paper %)"] = TABLE1_PASS_PERCENT[name][test]
        rows.append(row)
    return rows


def section4_metrics_table(
    results: Dict[str, AnalysisResults], *, include_paper: bool = True
) -> List[Dict[str, object]]:
    """Rows of the §4.2 scalar-metric comparison."""
    rows: List[Dict[str, object]] = []
    for name, source in results.items():
        report = source.report(include_earlybird=False)
        row: Dict[str, object] = {
            "application": _label(name),
            "mean_median_arrival_ms (measured)": report.mean_median_arrival_ms,
            "mean_iqr_ms (measured)": report.mean_iqr_ms,
            "max_iqr_ms (measured)": report.max_iqr_ms,
            "laggard_fraction (measured)": report.laggard_fraction,
            "mean_reclaimable_ms (measured)": report.mean_reclaimable_ms,
            "mean_idle_ratio (measured)": report.mean_idle_ratio,
        }
        if include_paper and name in SECTION4_METRICS:
            paper = SECTION4_METRICS[name]
            row.update(
                {
                    "mean_median_arrival_ms (paper)": paper["mean_median_arrival_ms"],
                    "mean_iqr_ms (paper)": paper["mean_iqr_ms"],
                    "max_iqr_ms (paper)": paper["max_iqr_ms"],
                    "laggard_fraction (paper)": paper["laggard_fraction"],
                    "mean_reclaimable_ms (paper)": paper["mean_reclaimable_ms"],
                    "mean_idle_ratio (paper)": paper["mean_idle_ratio"],
                }
            )
        rows.append(row)
    return rows


def section41_normality_table(
    results: Dict[str, AnalysisResults], *, include_paper: bool = True
) -> List[Dict[str, object]]:
    """Rows of the §4.1 application/application-iteration outcomes."""
    rows: List[Dict[str, object]] = []
    for name, source in results.items():
        product = source["normality"]
        rejected = product.application_rejected
        app_iter_passes = product.application_iteration_pass_counts
        if app_iter_passes is None:
            raise ValueError(
                "the streaming normality product carries no "
                "application-iteration counts (the pass ran with "
                "application_iteration=False); re-run the 'normality' pass "
                "with application_iteration=True for the Section 4.1 table"
            )
        row: Dict[str, object] = {
            "application": _label(name),
            "application level rejected (measured)": rejected,
            "app-iterations passing D'Agostino (measured)": app_iter_passes["dagostino"],
        }
        if include_paper and name in SECTION41_NORMALITY:
            paper = SECTION41_NORMALITY[name]
            row["application level rejected (paper)"] = paper["application_level_rejected"]
            row["app-iterations passing D'Agostino (paper)"] = paper[
                "application_iteration_passes_dagostino"
            ]
        rows.append(row)
    return rows


def minimd_phase_table(
    results: AnalysisResults, warmup_iterations: int = 19
) -> List[Dict[str, object]]:
    """The §4.2.2 two-phase IQR comparison for MiniMD (Figure 6's sections).

    A section whose iteration window is empty (a campaign of at most
    ``warmup_iterations`` iterations has no steady state) has no row.
    """
    series = results["percentiles"]
    paper = SECTION4_METRICS["minimd"]
    sections = (
        (
            "iterations 1-19 (warm-up)",
            slice(0, warmup_iterations),
            paper["warmup_mean_iqr_ms"],
            paper["warmup_max_iqr_ms"],
        ),
        (
            "remaining iterations",
            slice(warmup_iterations, None),
            paper["mean_iqr_ms"],
            paper["max_iqr_ms"],
        ),
    )
    rows: List[Dict[str, object]] = []
    for label, window, paper_mean, paper_max in sections:
        if series.iqr[window].size == 0:
            continue
        measured = series.iqr_summary(window)
        rows.append(
            {
                "section": label,
                "mean_iqr_ms (measured)": measured["mean"],
                "max_iqr_ms (measured)": measured["max"],
                "mean_iqr_ms (paper)": paper_mean,
                "max_iqr_ms (paper)": paper_max,
            }
        )
    return rows
