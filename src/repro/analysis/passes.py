"""The built-in analysis passes: every §4 product, mergeable.

Each pass computes one §4 product on the
``prepare → accumulate_columns_split(block) → merge → finalize`` lifecycle
of :class:`~repro.analysis.base.AnalysisPass`, with a single accumulation
body that reads the canonical block's ``(n_slices, n_iterations,
n_threads)`` cube:

============  ====================================================  =========
name          product                                               paper
============  ====================================================  =========
percentiles   :class:`~repro.stats.percentiles.PercentileSeries`    Fig 4/6/8
histogram     :class:`~repro.stats.histogram.FixedWidthHistogram`   Fig 3
normality     :class:`NormalityResult`                              §4.1/Tab 1
laggards      :class:`LaggardsResult`                               §4.2
reclaimable   :class:`~repro.core.reclaimable.ReclaimableSummary`   §4.2
earlybird     dict of mean early-bird gains                         Fig 1/2
============  ====================================================  =========

Exactness contract (checked by the pinned-digest integration tests and
against the dense :func:`~repro.core.aggregation.aggregate` oracles): with
``context.exact`` (the default) every pass produces results *bit-identical*
to the dense reference analyses, for any shard decomposition and any shard
order.  The trick is that accumulators never merge floating-point partials —
they keep exact per-slice segments keyed by the slice's serial (trial,
process) position and re-assemble the dense-order arrays at finalize.  With
``exact=False`` the passes switch to bounded accumulators
(:class:`~repro.stats.sketch.PercentileSketch`,
:class:`~repro.stats.streaming.StreamingMoments`, lattice histograms) whose
memory is independent of the shard count; sketched percentiles then agree
within the sketch's documented rank tolerance (≈ ``1 / capacity``).  The
percentiles pass keeps one row-batched sketch per slice (one row per
iteration), so a sketch-mode merge is one sketch merge per slice, not one
per (slice, iteration).  Each mode's state carries only its own
accumulators: exact states hold segments, sketch states hold sketches and
running tallies.

Each block is sorted at most once: the laggard order statistics (median,
max, quartiles) and the normality battery's Shapiro–Wilk and
Anderson–Darling read the block's shared
:attr:`~repro.core.aggregation.ColumnBlock.sorted_cube`, through
:func:`~repro.stats.percentiles.sorted_percentiles` and
:func:`~repro.stats.percentiles.sorted_median`, which equal
``np.percentile`` / ``np.median`` bit for bit.  The exact percentiles
finalize sorts its regrouped iteration rows in place and indexes them the
same way.  The early-bird pass only collects its strided groups' rows while
folding and replays the injection model once over all of them at finalize.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.base import AnalysisContext, AnalysisPass, register_analysis
from repro.core.earlybird import EarlyBirdModel
from repro.core.laggard import (
    DEFAULT_LAGGARD_THRESHOLD_S,
    DEFAULT_WIDE_IQR_S,
    IterationClass,
    LaggardAnalysis,
    group_laggard_codes,
)
from repro.core.normality import stratified_subsample
from repro.core.reclaimable import ReclaimableSummary, reclaim_and_idle_ratio
from repro.stats.battery import TEST_NAMES, NormalityBattery
from repro.stats.histogram import FixedWidthHistogram
from repro.stats.percentiles import (
    DEFAULT_PERCENTILES,
    PercentileSeries,
    sorted_median,
    sorted_percentiles,
)
from repro.stats.sketch import BoundedTopK, PercentileSketch
from repro.stats.streaming import StreamingHistogram, StreamingMoments

#: default bounded-mode sketch capacity (per accumulator)
DEFAULT_SKETCH_CAPACITY = 4096

#: default size of the early-bird pass's deterministic strided group subset
DEFAULT_EARLYBIRD_MAX_GROUPS = 200


def _sorted_segments(segments: List[Tuple[Tuple[int, int], Any]]) -> List[Any]:
    """Segment payloads ordered by the slices' serial (trial-major) position."""
    return [payload for _, payload in sorted(segments, key=lambda item: item[0])]


def _slice_segments(block) -> List[Tuple[Tuple[int, int], Any]]:
    """One ``(sort_key, (iterations, cube[s]))`` exact segment per slice.

    Each segment owns its iteration labels, so a slice's partial pickles the
    same whichever block it came in.
    """
    return [
        (sl.sort_key, (block.iterations.copy(), rows))
        for sl, rows in zip(block.slices, block.cube)
    ]


def _iteration_rows(segments) -> Any:
    """Every iteration's samples pooled across slices, in serial slice order.

    ``segments`` are :func:`_slice_segments` entries.  The slices' matrices
    are stacked in serial order and their rows regrouped by a stable
    argsort of the rows' iteration labels, so the ``k``-th row is the
    concatenation, slice by slice, of the ``k``-th iteration's samples — the
    dense path's pooled per-iteration vector, bit for bit — whether or not
    every slice lists the same iterations.  Returns an ``(n_iterations, n)``
    matrix when every iteration pools the same number of samples, else a
    list of 1-D rows.
    """
    parts = _sorted_segments(segments)
    labels = np.concatenate([iterations for iterations, _ in parts])
    counts = np.unique(labels, return_counts=True)[1]
    order = np.argsort(labels, kind="stable")
    rows = np.concatenate([cube for _, cube in parts])[order]
    if np.all(counts == counts[0]):
        return rows.reshape(len(counts), -1)
    return [part.ravel() for part in np.split(rows, np.cumsum(counts)[:-1])]


# ----------------------------------------------------------------------
@register_analysis("percentiles")
class PercentilesPass(AnalysisPass):
    """Per-application-iteration percentile trajectories (Figures 4/6/8)."""

    title = "per-iteration percentile trajectories (Figures 4/6/8)"

    def __init__(
        self,
        percentiles: Tuple[float, ...] = DEFAULT_PERCENTILES,
        *,
        sketch_capacity: int = DEFAULT_SKETCH_CAPACITY,
    ) -> None:
        self.percentiles = tuple(percentiles)
        self.sketch_capacity = int(sketch_capacity)

    def prepare(self, context: AnalysisContext) -> Any:
        # exact: one (sort_key, (iterations, samples)) segment per slice;
        # bounded: one row-batched sketch, one row per iteration
        return [] if context.exact else PercentileSketch(self.sketch_capacity)

    def accumulate_columns_split(self, block, context):
        if not context.exact:
            # sketch rows are iterations: every slice must list the same ones
            if not np.array_equal(block.iterations, context.iterations):
                raise ValueError(
                    "sketch-mode percentiles need every slice to cover the "
                    "campaign's iterations"
                )
            return [
                PercentileSketch(self.sketch_capacity).update(rows)
                for rows in block.cube
            ]
        return [[segment] for segment in _slice_segments(block)]

    def merge(self, state, other):
        if isinstance(state, PercentileSketch):
            return state.merge(other)
        state.extend(other)
        return state

    def finalize(self, state, context: AnalysisContext) -> PercentileSeries:
        if not (state.n if isinstance(state, PercentileSketch) else len(state)):
            raise ValueError("percentiles pass saw no shards")
        levels = list(self.percentiles)
        if isinstance(state, PercentileSketch):
            # one query over every iteration row, scaled after the percentile
            values = state.quantile(levels) * 1.0e3
        else:
            # exact: the dense path's per-iteration rows, bit for bit, sorted
            # in place (they are a fresh regrouping) and scaled after the
            # sort, which ×1e3 cannot reorder; regular campaigns (equal-size
            # iteration groups) sort and index the whole matrix at once
            def table(matrix: np.ndarray) -> np.ndarray:
                matrix.sort(axis=-1)
                matrix *= 1.0e3
                return sorted_percentiles(matrix, levels)

            rows = _iteration_rows(state)
            if isinstance(rows, np.ndarray):
                values = table(rows)
            else:
                values = np.column_stack([table(row) for row in rows])
        return PercentileSeries(
            iterations=np.arange(values.shape[1]),
            percentiles=tuple(levels),
            values=values,
            unit="ms",
        )


# ----------------------------------------------------------------------
@register_analysis("histogram")
class HistogramPass(AnalysisPass):
    """Application-level arrival histogram (Figure 3; 10 µs bins)."""

    title = "application-level arrival histogram (Figure 3)"

    def __init__(self, bin_width_s: float = 10.0e-6) -> None:
        if bin_width_s <= 0:
            raise ValueError("bin_width_s must be positive")
        self.bin_width_s = float(bin_width_s)

    def prepare(self, context: AnalysisContext) -> StreamingHistogram:
        return StreamingHistogram(self.bin_width_s, unit="s")

    def accumulate_columns_split(self, block, context):
        return [self.prepare(context).update(rows.ravel()) for rows in block.cube]

    def merge(self, state, other):
        return state.merge(other)

    def finalize(self, state, context: AnalysisContext) -> FixedWidthHistogram:
        return state.finalize()


# ----------------------------------------------------------------------
@dataclasses.dataclass
class NormalityResult:
    """Streaming normality-study product (all three §4.1 levels).

    ``application_iteration_pass_counts`` is the §4.1 middle level (how many
    application iterations pass each test — the Section 4.1 table's
    "app-iterations passing D'Agostino" column).  It pools samples *across*
    shards per iteration, which only the exact accumulators can reassemble
    bit-identically; in sketch mode (or when the pass was built with
    ``application_iteration=False``) it is ``None``.
    """

    alpha: float
    application_rejected: bool
    application_pass_rates: Dict[str, float]
    process_iteration_pass_rates: Dict[str, float]
    n_groups: int
    group_size: int
    application_iteration_pass_counts: Optional[Dict[str, int]] = None
    n_iterations: int = 0

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "alpha": self.alpha,
            "application_rejected": self.application_rejected,
            "n_groups": self.n_groups,
            "group_size": self.group_size,
        }
        for name, rate in self.process_iteration_pass_rates.items():
            payload[f"pass_rate_{name}"] = rate
        if self.application_iteration_pass_counts is not None:
            payload["n_iterations"] = self.n_iterations
            for name, count in self.application_iteration_pass_counts.items():
                payload[f"app_iteration_passes_{name}"] = count
        return payload


@register_analysis("normality")
class NormalityPass(AnalysisPass):
    """§4.1 normality battery at the application and process-iteration levels."""

    title = "normality battery (Table 1 pass rates, application-level verdict)"

    def __init__(
        self,
        alpha: float = 0.05,
        *,
        max_application_samples: int = 5000,
        sketch_capacity: int = DEFAULT_SKETCH_CAPACITY,
        application_iteration: bool = True,
    ) -> None:
        self.alpha = float(alpha)
        self.max_application_samples = int(max_application_samples)
        self.sketch_capacity = int(sketch_capacity)
        #: exact mode only: also run the battery at the application-iteration
        #: level (pooled across shards per iteration; the §4.1 table's
        #: "iterations passing" counts)
        self.application_iteration = bool(application_iteration)

    def prepare(self, context: AnalysisContext) -> Dict[str, Any]:
        return {
            # exact: one (sort_key, (iterations, samples)) segment per slice,
            # the source of both the application and the iteration rows
            "segments": [] if context.exact else PercentileSketch(self.sketch_capacity),
            "pass_counts": {name: 0 for name in TEST_NAMES},
            "n_groups": 0,
            "group_size": 0,
        }

    def accumulate_columns_split(self, block, context):
        matrix = block.cube
        n_slices, n_iterations, n_threads = matrix.shape
        # one battery over every group of every slice in the block, on the
        # block's shared sort
        battery = NormalityBattery(alpha=self.alpha)
        report = battery.run(
            matrix.reshape(n_slices * n_iterations, n_threads),
            sorted_x=block.sorted_cube.reshape(n_slices * n_iterations, n_threads),
        )
        passed = {name: report.outcomes[name].passed for name in TEST_NAMES}
        segments = _slice_segments(block)
        states = []
        for s, segment in enumerate(segments):
            state = self.prepare(context)
            rows = slice(s * n_iterations, (s + 1) * n_iterations)
            for name in TEST_NAMES:
                state["pass_counts"][name] = int(np.sum(passed[name][rows]))
            state["n_groups"] = n_iterations
            state["group_size"] = n_threads
            if context.exact:
                state["segments"].append(segment)
            else:
                # the slice's application-level vector is its whole cube
                state["segments"].update(matrix[s].ravel())
            states.append(state)
        return states

    def merge(self, state, other):
        if isinstance(state["segments"], list):
            state["segments"].extend(other["segments"])
        else:
            state["segments"] = state["segments"].merge(other["segments"])
        for name in TEST_NAMES:
            state["pass_counts"][name] += other["pass_counts"][name]
        state["n_groups"] += other["n_groups"]
        state["group_size"] = max(state["group_size"], other["group_size"])
        return state

    def _iteration_counts(
        self, battery: NormalityBattery, segments: List
    ) -> Tuple[Dict[str, int], int]:
        """Battery pass counts at the application-iteration level.

        Each iteration's row is the dense path's pooled per-iteration
        vector, bit for bit (:func:`_iteration_rows`), so the counts match
        :meth:`NormalityStudy.application_iteration_pass_counts` exactly.
        """
        rows = _iteration_rows(segments)
        report = battery.run(rows)
        counts = {
            name: int(np.sum(report.outcomes[name].passed)) for name in TEST_NAMES
        }
        return counts, len(rows)

    def finalize(self, state, context: AnalysisContext) -> NormalityResult:
        if state["n_groups"] == 0:
            raise ValueError("normality pass saw no shards")
        battery = NormalityBattery(alpha=self.alpha)
        exact = isinstance(state["segments"], list)
        if exact:
            app_row = np.concatenate(
                [cube.ravel() for _, cube in _sorted_segments(state["segments"])]
            )
        else:
            app_row = state["segments"].support
        subsampled = stratified_subsample(
            app_row[np.newaxis, :], self.max_application_samples
        )
        app_report = battery.run(subsampled)
        rates = {
            name: state["pass_counts"][name] / state["n_groups"] for name in TEST_NAMES
        }
        iteration_counts: Optional[Dict[str, int]] = None
        n_iterations = 0
        if exact and self.application_iteration:
            iteration_counts, n_iterations = self._iteration_counts(
                battery, state["segments"]
            )
        return NormalityResult(
            alpha=self.alpha,
            application_rejected=app_report.rejected_all(),
            application_pass_rates=app_report.pass_rates(),
            process_iteration_pass_rates=rates,
            n_groups=state["n_groups"],
            group_size=state["group_size"],
            application_iteration_pass_counts=iteration_counts,
            n_iterations=n_iterations,
        )


# ----------------------------------------------------------------------
@dataclasses.dataclass
class LaggardsResult:
    """Streaming laggard-analysis product.

    Scalar fractions are exact in both accumulation modes (they are integer
    tallies); the gap/IQR summary statistics are exact in ``exact`` mode and
    running-moment approximations otherwise.  ``analysis`` carries the full
    per-group :class:`~repro.core.laggard.LaggardAnalysis` in exact mode
    (``None`` in bounded mode, which keeps memory independent of campaign
    size).  In bounded mode, ``candidates`` carries one
    :class:`~repro.stats.sketch.BoundedTopK` pool of ``(gap, key)``
    exemplar candidates per iteration class, so :meth:`exemplar` — the
    selection behind Figures 5/7/9 — still answers with bounded memory.
    """

    n_groups: int
    laggard_count: int
    class_counts: Dict[str, int]
    threshold_s: float
    wide_iqr_s: float
    mean_gap_s: float
    max_gap_s: float
    mean_iqr_s: float
    max_iqr_s: float
    mean_median_s: float
    analysis: Optional[LaggardAnalysis] = None
    candidates: Optional[Dict[str, "BoundedTopK"]] = None

    @property
    def laggard_fraction(self) -> float:
        return self.laggard_count / self.n_groups if self.n_groups else 0.0

    def exemplar(self, iteration_class: IterationClass) -> Optional[Tuple[int, ...]]:
        """Key of the most typical group of a class (median gap within class).

        Exact mode delegates to the per-group analysis (bit-identical to the
        dense path); bounded mode answers from the class's candidate pool —
        the retained candidate whose gap is closest to the pool's median, at
        most one quantile spacing away from the exact choice.
        """
        if self.analysis is not None:
            return self.analysis.exemplar(iteration_class)
        if not self.candidates:
            return None
        pool = self.candidates.get(iteration_class.value)
        if pool is None or len(pool) == 0:
            return None
        return pool.nearest(float(pool.quantile(50.0)))

    def class_fraction(self, iteration_class: IterationClass) -> float:
        if not self.n_groups:
            return 0.0
        return self.class_counts.get(iteration_class.value, 0) / self.n_groups

    @property
    def class_fractions(self) -> Dict[str, float]:
        return {cls.value: self.class_fraction(cls) for cls in IterationClass}

    def as_dict(self) -> Dict[str, float]:
        payload = {
            "laggard_fraction": self.laggard_fraction,
            "mean_gap_ms": self.mean_gap_s * 1e3,
            "max_gap_ms": self.max_gap_s * 1e3,
            "mean_iqr_ms": self.mean_iqr_s * 1e3,
            "max_iqr_ms": self.max_iqr_s * 1e3,
            "mean_median_ms": self.mean_median_s * 1e3,
            "threshold_ms": self.threshold_s * 1e3,
            "n_groups": float(self.n_groups),
        }
        payload.update(
            {f"class_{name}": value for name, value in self.class_fractions.items()}
        )
        return payload


@register_analysis("laggards")
class LaggardsPass(AnalysisPass):
    """§4.2 laggard detection and iteration classification."""

    title = "laggard fractions and iteration classes (§4.2, Figures 5/7)"

    #: bounded-mode exemplar candidates retained per iteration class
    DEFAULT_CANDIDATE_CAPACITY = 256

    def __init__(
        self,
        threshold_s: float = DEFAULT_LAGGARD_THRESHOLD_S,
        wide_iqr_s: float = DEFAULT_WIDE_IQR_S,
        *,
        candidate_capacity: int = DEFAULT_CANDIDATE_CAPACITY,
    ) -> None:
        if threshold_s <= 0:
            raise ValueError("threshold_s must be positive")
        self.threshold_s = float(threshold_s)
        self.wide_iqr_s = float(wide_iqr_s)
        self.candidate_capacity = int(candidate_capacity)

    def prepare(self, context: AnalysisContext) -> Dict[str, Any]:
        state: Dict[str, Any] = {
            "n_groups": 0,
            "laggard_count": 0,
            "class_counts": {cls.value: 0 for cls in IterationClass},
        }
        if context.exact:
            state["segments"] = []
        else:
            state.update(
                gap=StreamingMoments(),
                iqr=StreamingMoments(),
                median=StreamingMoments(),
                # per-class (gap, key) exemplar candidates
                candidates={
                    cls.value: BoundedTopK(self.candidate_capacity)
                    for cls in IterationClass
                },
            )
        return state

    def accumulate_columns_split(self, block, context):
        n_slices, n_iterations, n_threads = block.cube.shape
        ordered = block.sorted_cube.reshape(n_slices * n_iterations, n_threads)
        # the per-group operations of group_laggard_metrics, over the whole
        # block at once (codes instead of a per-group enum list), read off
        # the block's shared sort bit for bit
        median = sorted_median(ordered)
        maximum = ordered[:, -1].copy()
        gap = maximum - median
        q75, q25 = sorted_percentiles(ordered, [75.0, 25.0])
        iqr = q75 - q25
        has_laggard = gap > self.threshold_s
        codes = group_laggard_codes(iqr, has_laggard, wide_iqr_s=self.wide_iqr_s)
        iters = [int(i) for i in block.iterations]
        states = []
        for s, sl in enumerate(block.slices):
            state = self.prepare(context)
            rows = slice(s * n_iterations, (s + 1) * n_iterations)
            counts = np.bincount(codes[rows], minlength=len(IterationClass))
            for k, cls in enumerate(IterationClass):
                state["class_counts"][cls.value] = int(counts[k])
            state["n_groups"] = n_iterations
            state["laggard_count"] = int(np.sum(has_laggard[rows]))
            keys = [(sl.trial, sl.process, it) for it in iters]
            if context.exact:
                state["segments"].append(
                    (
                        sl.sort_key,
                        (
                            keys,
                            median[rows],
                            maximum[rows],
                            gap[rows],
                            iqr[rows],
                            has_laggard[rows],
                            codes[rows],
                        ),
                    )
                )
            else:
                state["gap"].update(gap[rows])
                state["iqr"].update(iqr[rows])
                state["median"].update(median[rows])
                for k, cls in enumerate(IterationClass):
                    mask = codes[rows] == k
                    if mask.any():
                        state["candidates"][cls.value].update(
                            gap[rows][mask],
                            [key for key, m in zip(keys, mask) if m],
                        )
            states.append(state)
        return states

    def merge(self, state, other):
        state["n_groups"] += other["n_groups"]
        state["laggard_count"] += other["laggard_count"]
        for name, count in other["class_counts"].items():
            state["class_counts"][name] += count
        if "segments" in state:
            state["segments"].extend(other["segments"])
            return state
        for key in ("gap", "iqr", "median"):
            state[key] = state[key].merge(other[key])
        for name, pool in other["candidates"].items():
            state["candidates"][name] = state["candidates"][name].merge(pool)
        return state

    def finalize(self, state, context: AnalysisContext) -> LaggardsResult:
        if state["n_groups"] == 0:
            raise ValueError("laggards pass saw no shards")
        analysis: Optional[LaggardAnalysis] = None
        if "segments" in state:
            parts = _sorted_segments(state["segments"])
            keys: List[Tuple[int, ...]] = []
            for part in parts:
                keys.extend(part[0])
            members = list(IterationClass)
            analysis = LaggardAnalysis(
                keys=keys,
                median_s=np.concatenate([p[1] for p in parts]),
                max_s=np.concatenate([p[2] for p in parts]),
                gap_s=np.concatenate([p[3] for p in parts]),
                iqr_s=np.concatenate([p[4] for p in parts]),
                has_laggard=np.concatenate([p[5] for p in parts]),
                classes=[members[c] for p in parts for c in p[6]],
                threshold_s=self.threshold_s,
                wide_iqr_s=self.wide_iqr_s,
            )
        if analysis is not None:
            # exact summary statistics from the re-assembled dense arrays
            mean_gap = float(np.mean(analysis.gap_s))
            max_gap = float(np.max(analysis.gap_s))
            mean_iqr = float(np.mean(analysis.iqr_s))
            max_iqr = float(np.max(analysis.iqr_s))
            mean_median = float(np.mean(analysis.median_s))
        else:
            mean_gap, max_gap = state["gap"].mean, state["gap"].maximum
            mean_iqr, max_iqr = state["iqr"].mean, state["iqr"].maximum
            mean_median = state["median"].mean
        return LaggardsResult(
            n_groups=state["n_groups"],
            laggard_count=state["laggard_count"],
            class_counts=dict(state["class_counts"]),
            threshold_s=self.threshold_s,
            wide_iqr_s=self.wide_iqr_s,
            mean_gap_s=mean_gap,
            max_gap_s=max_gap,
            mean_iqr_s=mean_iqr,
            max_iqr_s=max_iqr,
            mean_median_s=mean_median,
            analysis=analysis,
            candidates=None if analysis is not None else dict(state["candidates"]),
        )


# ----------------------------------------------------------------------
@register_analysis("reclaimable")
class ReclaimablePass(AnalysisPass):
    """§4.2 reclaimable time and idle-ratio summary."""

    title = "reclaimable time and idle ratio (§4.2)"

    def __init__(self, *, sketch_capacity: int = DEFAULT_SKETCH_CAPACITY) -> None:
        self.sketch_capacity = int(sketch_capacity)

    def prepare(self, context: AnalysisContext) -> Dict[str, Any]:
        if context.exact:
            return {"segments": [], "n_threads": 0}
        return {
            "reclaim": StreamingMoments(),
            "ratio": StreamingMoments(),
            "median_sketch": PercentileSketch(self.sketch_capacity),
            "n_threads": 0,
        }

    def accumulate_columns_split(self, block, context):
        n_slices, n_iterations, n_threads = block.cube.shape
        flat = block.cube.reshape(n_slices * n_iterations, n_threads)
        # both metrics reduce along the thread axis only
        reclaim, ratios = reclaim_and_idle_ratio(flat)
        states = []
        for s, sl in enumerate(block.slices):
            state = self.prepare(context)
            rows = slice(s * n_iterations, (s + 1) * n_iterations)
            state["n_threads"] = n_threads
            if context.exact:
                state["segments"].append((sl.sort_key, (reclaim[rows], ratios[rows])))
            else:
                state["reclaim"].update(reclaim[rows])
                state["ratio"].update(ratios[rows])
                state["median_sketch"].update(reclaim[rows])
            states.append(state)
        return states

    def merge(self, state, other):
        state["n_threads"] = max(state["n_threads"], other["n_threads"])
        if "segments" in state:
            state["segments"].extend(other["segments"])
            return state
        state["reclaim"] = state["reclaim"].merge(other["reclaim"])
        state["ratio"] = state["ratio"].merge(other["ratio"])
        state["median_sketch"] = state["median_sketch"].merge(other["median_sketch"])
        return state

    def finalize(self, state, context: AnalysisContext) -> ReclaimableSummary:
        if not state["n_threads"]:
            raise ValueError("reclaimable pass saw no shards")
        n_threads = state["n_threads"]
        if "segments" in state:
            parts = _sorted_segments(state["segments"])
            reclaim = np.concatenate([p[0] for p in parts])
            ratios = np.concatenate([p[1] for p in parts])
            return ReclaimableSummary(
                mean_reclaimable_s=float(np.mean(reclaim)),
                median_reclaimable_s=float(np.median(reclaim)),
                max_reclaimable_s=float(np.max(reclaim)),
                mean_idle_ratio=float(np.mean(ratios)),
                mean_per_thread_idle_s=float(np.mean(reclaim) / n_threads),
                n_groups=len(reclaim),
                n_threads=n_threads,
            )
        return ReclaimableSummary(
            mean_reclaimable_s=state["reclaim"].mean,
            median_reclaimable_s=float(state["median_sketch"].quantile(50.0)),
            max_reclaimable_s=state["reclaim"].maximum,
            mean_idle_ratio=state["ratio"].mean,
            mean_per_thread_idle_s=state["reclaim"].mean / n_threads,
            n_groups=state["reclaim"].count,
            n_threads=n_threads,
        )


# ----------------------------------------------------------------------
@register_analysis("earlybird")
class EarlybirdPass(AnalysisPass):
    """Early-bird gain quantification over the deterministic strided subset.

    The global index of each process-iteration group (via the context)
    determines whether it lies on the evaluation stride, so the evaluated
    subset — and therefore every mean — is that of the dense
    ``aggregate(dataset, PROCESS_ITERATION).values[::stride]`` regardless
    of sharding.  Accumulation only keeps the selected groups' arrival
    rows, keyed by global index; finalize replays the FIFO injection model
    once over all of them (:meth:`EarlyBirdModel.evaluate_groups`, whose
    per-group results do not depend on the batch).  Memory is bounded by
    ``max_groups`` rows in both accumulation modes.
    """

    title = "mean early-bird delivery gains (Figures 1/2 quantified)"

    def __init__(
        self,
        model: Optional[EarlyBirdModel] = None,
        *,
        max_groups: int = DEFAULT_EARLYBIRD_MAX_GROUPS,
    ) -> None:
        if max_groups < 1:
            raise ValueError("max_groups must be >= 1")
        self.model = model if model is not None else EarlyBirdModel()
        self.max_groups = int(max_groups)

    def prepare(self, context: AnalysisContext) -> Dict[int, np.ndarray]:
        # global group index -> that group's arrival row
        return {}

    def _stride(self, context: AnalysisContext) -> int:
        return max(context.n_groups // self.max_groups, 1)

    def accumulate_columns_split(self, block, context):
        n_slices, n_iterations, n_threads = block.cube.shape
        indices = context.group_indices(block)
        selected = np.flatnonzero(indices % self._stride(context) == 0)
        states = [self.prepare(context) for _ in block.slices]
        # a copy: the state must not pin the block's (possibly mapped) cube
        rows = block.cube.reshape(n_slices * n_iterations, n_threads)[selected]
        for k, index, row in zip(
            (selected // n_iterations).tolist(), indices[selected].tolist(), rows
        ):
            states[k][index] = row
        return states

    def merge(self, state, other):
        state.update(other)
        return state

    def finalize(self, state, context: AnalysisContext) -> Dict[str, float]:
        if not state:
            raise ValueError("earlybird pass saw no shards")
        results = self.model.evaluate_groups(
            np.array([state[idx] for idx in sorted(state)])
        )
        return {
            "mean_improvement_s": float(np.mean(results["improvement_s"])),
            "mean_speedup": float(np.mean(results["speedup"])),
            "mean_hidden_s": float(np.mean(results["hidden_s"])),
            "mean_potential_overlap_s": float(np.mean(results["potential_overlap_s"])),
            "groups_evaluated": float(len(state)),
            "buffer_bytes": float(self.model.buffer_bytes),
        }
