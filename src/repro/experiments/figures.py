"""Per-figure data generators.

Each function regenerates the data behind one figure of the paper,
returning a :class:`FigureData` that carries the raw series plus enough
labelling to render it (ASCII in the examples, CSV for external plotting)
and to assert its qualitative shape in the benchmarks.

Every §4 generator reads the :class:`~repro.analysis.AnalysisResults` of an
analysis run (``CampaignSession.analyze`` or
:func:`~repro.analysis.analyze_dataset`); the merged dataset is never
needed.  The exemplar histograms of Figures 5/7/9 need raw samples a
finalized product cannot carry, so those generators also take the
campaign's ``shards`` — a
:class:`~repro.experiments.session.CampaignResult` or a
:class:`~repro.io.shard_store.ShardStore` — and read the exemplar group
as one row of the campaign's cube (the merged dataset's group, bit for
bit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.engine import AnalysisResults
from repro.core.earlybird import EarlyBirdModel
from repro.core.laggard import IterationClass, LaggardAnalysis
from repro.experiments.paper import FIGURE_PARAMETERS
from repro.stats.histogram import FixedWidthHistogram, fixed_width_histogram
from repro.stats.percentiles import PercentileSeries


@dataclass
class FigureData:
    """One regenerated figure: identifying metadata plus its data objects."""

    figure_id: str
    title: str
    application: str
    payload: Dict[str, object] = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.payload[key]

    def keys(self):
        return self.payload.keys()


# ----------------------------------------------------------------------
# Figures 1 & 2 — the early-bird model and the potential overlap
# ----------------------------------------------------------------------
def figure1_earlybird_timeline(
    arrivals_s: Sequence[float],
    *,
    buffer_bytes: int = 8 * 1024 * 1024,
    model: Optional[EarlyBirdModel] = None,
) -> FigureData:
    """Figure 1: per-partition ready/injection/delivery timeline vs bulk."""
    eb = model if model is not None else EarlyBirdModel(buffer_bytes=buffer_bytes)
    outcome = eb.evaluate(arrivals_s)
    transfer = outcome.earlybird_transfer
    return FigureData(
        figure_id="figure1",
        title="Early-bird model of communication",
        application="model",
        payload={
            "arrivals_s": np.asarray(arrivals_s, dtype=np.float64),
            "partition_ready_s": transfer.ready_times(),
            "partition_delivery_s": transfer.delivery_times(),
            "bulk_completion_s": outcome.bulk_completion_s,
            "earlybird_completion_s": outcome.earlybird_completion_s,
            "improvement_s": outcome.improvement_s,
            "speedup": outcome.speedup,
        },
    )


def figure2_potential_overlap(
    arrivals_s: Sequence[float],
    *,
    model: Optional[EarlyBirdModel] = None,
) -> FigureData:
    """Figure 2: per-thread potential-overlap windows (the green boxes)."""
    eb = model if model is not None else EarlyBirdModel()
    windows = eb.overlap_windows(arrivals_s)
    return FigureData(
        figure_id="figure2",
        title="Potential for computation-communication overlap",
        application="model",
        payload={
            "threads": np.array([w.thread for w in windows]),
            "arrival_s": np.array([w.arrival_s for w in windows]),
            "window_s": np.array([w.window_s for w in windows]),
            "total_overlap_s": float(sum(w.window_s for w in windows)),
        },
    )


# ----------------------------------------------------------------------
# exemplar plumbing: laggard products and cube rows
# ----------------------------------------------------------------------
def _laggards_product(results: AnalysisResults) -> LaggardAnalysis:
    """The per-group laggard analysis behind Figures 5/7/9's exemplars."""
    return results["laggards"].analysis


def _group_samples(shards, key: Tuple[int, int, int]) -> np.ndarray:
    """One process-iteration's samples: one row of the campaign's cube,
    found by address (the slice of its (trial, process), the row of its
    iteration), a fresh copy equal to the dense path's group.

    ``shards`` is anything with ``iter_column_blocks()`` (a store or a
    campaign result); a stored row is read alone through the block's
    :class:`~repro.io.shard_store.StoredRows`.
    """
    trial, process, iteration = (int(part) for part in key)
    for block in shards.iter_column_blocks():
        for s, sl in enumerate(block.slices):
            if (sl.trial, sl.process) != (trial, process):
                continue
            hits = np.flatnonzero(block.iterations == iteration)
            if not len(hits):
                continue
            row = int(hits[0])
            if block.stored is not None:
                return block.stored.row(s)[row : row + 1].reshape(-1)
            return np.array(block.cube[s, row])
    raise KeyError(f"no samples for process-iteration {key} in the shards")


def _group_histogram(
    shards, key: Tuple[int, int, int], bin_width_s: float
) -> FixedWidthHistogram:
    """Histogram of one process-iteration scanned out of the shards."""
    return fixed_width_histogram(_group_samples(shards, key), bin_width_s, unit="s")


# ----------------------------------------------------------------------
# Figure 3 — application-level histograms
# ----------------------------------------------------------------------
def figure3_histogram(results: AnalysisResults) -> FigureData:
    """Figure 3: application-level arrival histogram (the ``histogram``
    pass, 10 µs bins by default)."""
    histogram = results["histogram"]
    return FigureData(
        figure_id="figure3",
        title="Application thread arrival time histogram",
        application=results.application,
        payload={
            "histogram": histogram,
            "peak_ms": histogram.mode_center * 1e3,
            "samples": histogram.total,
        },
    )


# ----------------------------------------------------------------------
# Figures 4 / 6 / 8 — percentile plots
# ----------------------------------------------------------------------
def percentile_figure(results: AnalysisResults, figure_id: str) -> FigureData:
    """Shared generator of the three percentile plots."""
    series = results["percentiles"]
    return FigureData(
        figure_id=figure_id,
        title="Per-iteration thread arrival percentiles",
        application=results.application,
        payload={
            "series": series,
            "mean_median_ms": series.mean_median(),
            "mean_iqr_ms": float(series.iqr.mean()),
            "max_iqr_ms": float(series.iqr.max()),
            "skew_direction": series.skew_direction(),
        },
    )


def figure4_minife_percentiles(results: AnalysisResults) -> FigureData:
    """Figure 4: MiniFE mat-vec arrival percentiles per iteration."""
    return percentile_figure(results, "figure4")


def figure6_minimd_percentiles(
    results: AnalysisResults, warmup_iterations: int = 19
) -> FigureData:
    """Figure 6: MiniMD force-loop percentiles per iteration (two-phase)."""
    data = percentile_figure(results, "figure6")
    series: PercentileSeries = data["series"]  # type: ignore[assignment]
    data.payload["warmup_mean_iqr_ms"] = float(series.iqr[:warmup_iterations].mean())
    data.payload["steady_mean_iqr_ms"] = float(series.iqr[warmup_iterations:].mean())
    data.payload["warmup_iterations"] = warmup_iterations
    return data


def figure8_miniqmc_percentiles(results: AnalysisResults) -> FigureData:
    """Figure 8: MiniQMC mover percentiles per iteration."""
    return percentile_figure(results, "figure8")


# ----------------------------------------------------------------------
# Figures 5 / 7 / 9 — example process-iteration histograms per class
# ----------------------------------------------------------------------
def figure5_minife_classes(results: AnalysisResults, *, shards) -> FigureData:
    """Figure 5: MiniFE no-laggard vs laggard example histograms (50 µs bins).

    The exemplar histograms are binned from the campaign's ``shards``.
    """
    laggards = _laggards_product(results)
    bin_width = FIGURE_PARAMETERS["figure5"]["bin_width_s"]
    payload: Dict[str, object] = {
        "laggard_fraction": laggards.laggard_fraction,
        "no_laggard_fraction": 1.0 - laggards.laggard_fraction,
    }
    for cls, label in ((IterationClass.NO_LAGGARD, "no_laggard"), (IterationClass.LAGGARD, "laggard")):
        key = laggards.exemplar(cls)
        payload[f"{label}_exemplar"] = key
        payload[f"{label}_histogram"] = (
            _group_histogram(shards, key, bin_width) if key is not None else None
        )
    return FigureData(
        figure_id="figure5",
        title="MiniFE thread arrival distribution classes",
        application=results.application,
        payload=payload,
    )


def figure7_minimd_classes(
    results: AnalysisResults, warmup_iterations: int = 19, *, shards
) -> FigureData:
    """Figure 7: MiniMD initial / no-laggard / laggard example histograms.

    The exemplar histograms are binned from the campaign's ``shards``.
    """
    wide_bin = FIGURE_PARAMETERS["figure7a"]["bin_width_s"]
    tight_bin = FIGURE_PARAMETERS["figure7bc"]["bin_width_s"]
    laggards = _laggards_product(results)

    # (a) initial behaviour: any process-iteration from the warm-up phase
    warmup = np.flatnonzero(laggards.iterations < warmup_iterations)

    # (b)/(c): post-warm-up laggard statistics
    steady = np.flatnonzero(laggards.iterations >= warmup_iterations)
    steady_has_laggard = laggards.has_laggard[steady]
    steady_fraction = float(np.mean(steady_has_laggard)) if len(steady) else 0.0

    def steady_exemplar(want_laggard: bool):
        candidates = steady[steady_has_laggard == want_laggard]
        if not len(candidates):
            return None
        return laggards.key(int(candidates[len(candidates) // 2]))

    initial_hist = (
        _group_histogram(
            shards, laggards.key(int(warmup[len(warmup) // 2])), wide_bin
        )
        if len(warmup)
        else None
    )

    payload: Dict[str, object] = {
        "initial_histogram": initial_hist,
        "steady_laggard_fraction": steady_fraction,
        "steady_no_laggard_fraction": 1.0 - steady_fraction,
        "warmup_iterations": warmup_iterations,
    }
    for want, label in ((False, "no_laggard"), (True, "laggard")):
        key = steady_exemplar(want)
        payload[f"{label}_exemplar"] = key
        payload[f"{label}_histogram"] = (
            _group_histogram(shards, key, tight_bin) if key is not None else None
        )
    return FigureData(
        figure_id="figure7",
        title="MiniMD thread arrival distribution classes",
        application=results.application,
        payload=payload,
    )


def figure9_miniqmc_histogram(results: AnalysisResults, *, shards) -> FigureData:
    """Figure 9: a representative MiniQMC process-iteration histogram (1 ms bins).

    The histogram is binned from the campaign's ``shards``.
    """
    bin_width = FIGURE_PARAMETERS["figure9"]["bin_width_s"]
    laggards = _laggards_product(results)
    key = laggards.exemplar(IterationClass.WIDE)
    if key is None:
        key = laggards.key(laggards.n_groups // 2)
    histogram = _group_histogram(shards, key, bin_width)
    return FigureData(
        figure_id="figure9",
        title="MiniQMC thread arrival distribution example",
        application=results.application,
        payload={
            "histogram": histogram,
            "exemplar": key,
            "spread_ms": histogram.spread() * 1e3,
        },
    )


#: Registry used by the CLI runner: figure id → (applications, generator).
FIGURE_GENERATORS = {
    "figure3": (("minife", "minimd", "miniqmc"), figure3_histogram),
    "figure4": (("minife",), figure4_minife_percentiles),
    "figure5": (("minife",), figure5_minife_classes),
    "figure6": (("minimd",), figure6_minimd_percentiles),
    "figure7": (("minimd",), figure7_minimd_classes),
    "figure8": (("miniqmc",), figure8_miniqmc_percentiles),
    "figure9": (("miniqmc",), figure9_miniqmc_histogram),
}
