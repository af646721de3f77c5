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

These passes are the package's one implementation of each product.
Exactness contract (checked by the pinned-digest integration tests and
against the test tree's dense references): every pass produces results
*bit-identical* to the same statistics computed at once over a whole
dataset's :func:`~repro.core.aggregation.aggregate` grouping, for any
shard decomposition and any shard order.  The trick is that
accumulators never merge floating-point partials — they keep exact
per-slice segments keyed by the slice's serial (trial, process, first
iteration) position and re-assemble the dense-order arrays at finalize.

The percentiles and normality segments stand for their slices' samples:
a view of the block's cube in memory, or, for a block read from a shard
store, a :class:`~repro.io.shard_store.StoredRows` handle that re-reads the
samples at finalize, so a store-backed analysis does not keep the store's
pages resident.  Their finalizes pool the iteration rows
:data:`BATCH_SAMPLES` samples at a time (:func:`_iteration_batches`),
and the normality pass selects the application-level group's stratified
ranks in a few counting passes over the segments
(:func:`~repro.stats.selection.select_sorted`), so the memory a finalize
needs beyond the held segments is one batch of pooled rows or the
selection's bounded buckets, never the application's samples.  What does
grow with the campaign is the laggards and reclaimable passes' few
numbers per process-iteration group (slice keys, iteration indices and
metric arrays), kept for their means, medians and the exemplar
selection.

Each block is sorted at most once: the laggard order statistics (median,
max, quartiles) and the normality battery's Shapiro–Wilk and
Anderson–Darling read the block's shared
:attr:`~repro.core.aggregation.ColumnBlock.sorted_cube`, through
:func:`~repro.stats.percentiles.sorted_percentiles` and
:func:`~repro.stats.percentiles.sorted_median`, which equal
``np.percentile`` / ``np.median`` bit for bit.  The percentiles
finalize sorts its regrouped iteration rows in place and indexes them the
same way, one batch at a time.  The early-bird pass only collects its
strided groups' rows while folding and replays the injection model once
over all of them at finalize.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

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
from repro.core.reclaimable import ReclaimableSummary, reclaim_and_idle_ratio
from repro.stats.battery import TEST_NAMES, NormalityBattery
from repro.stats.histogram import FixedWidthHistogram
from repro.stats.percentiles import (
    DEFAULT_PERCENTILES,
    PercentileSeries,
    sorted_median,
    sorted_percentiles,
)
from repro.stats.selection import select_sorted, stratified_ranks, stratified_subsample
from repro.stats.streaming import StreamingHistogram

#: samples of pooled iteration rows the percentiles and normality
#: finalizes hold at once (whole rows, at least one): 17 iterations of the
#: paper-scale campaign's 3840-sample rows
BATCH_SAMPLES = 1 << 16

#: default size of the early-bird pass's deterministic strided group subset
DEFAULT_EARLYBIRD_MAX_GROUPS = 200


def _segment_key(sl, block) -> Tuple[int, int, int]:
    """A slice's serial position: its (trial, process) ``sort_key`` and
    its block's first iteration label, so the iteration-split pieces of
    one (trial, process) order by iteration, whatever order they came in."""
    return sl.sort_key + (int(block.iterations[0]),)


def _sorted_segments(segments: List[Tuple[Tuple[int, int, int], Any]]) -> List[Any]:
    """Segment payloads ordered by :func:`_segment_key`."""
    return [payload for _, payload in sorted(segments, key=lambda item: item[0])]


def _slice_segments(block) -> List[Tuple[Tuple[int, int, int], Any]]:
    """One ``(key, (iterations, rows))`` exact segment per slice, keyed by
    :func:`_segment_key`.

    ``rows`` is the slice's ``cube[s]``, or, for a block read from a
    shard-store group, a :class:`~repro.io.shard_store.StoredRows` handle
    on the same samples (:meth:`~repro.io.shard_store.StoredRows.row`);
    both read as ``rows[start:stop]``.  Each segment owns its iteration
    labels, so a slice's partial pickles the same whichever block it came
    in.
    """
    return [
        (
            _segment_key(sl, block),
            (
                block.iterations.copy(),
                rows if block.stored is None else block.stored.row(s),
            ),
        )
        for s, (sl, rows) in enumerate(zip(block.slices, block.cube))
    ]


def _extend_segments(segments: List, others: List, labels: int = 0) -> List:
    """``segments`` extended by ``others``, a merge's segment list.

    Each segment's payload holds its slice's iteration labels at index
    ``labels`` (a partial owns its copy, see :func:`_slice_segments`); a
    label array equal to the previous segment's is replaced by that one,
    so a merged state keeps one array per run of equal labels (one per
    campaign, when every slice lists the same iterations), not one per
    slice.
    """
    for key, payload in others:
        if segments:
            previous = segments[-1][1][labels]
            if previous is not payload[labels] and np.array_equal(
                previous, payload[labels]
            ):
                payload = payload[:labels] + (previous,) + payload[labels + 1 :]
        segments.append((key, payload))
    return segments


_Batch = Union[np.ndarray, List[np.ndarray]]


def _iteration_batches(
    segments, max_samples: int = BATCH_SAMPLES
) -> Iterator[_Batch]:
    """Every iteration's samples pooled across slices, as many iterations
    at a time as fit in ``max_samples`` samples (at least one).

    ``segments`` are :func:`_slice_segments` entries.  The ``k``-th pooled
    row is the concatenation, slice by slice in serial order, of the
    ``k``-th iteration's samples — the dense path's pooled per-iteration
    vector, bit for bit — whether or not every slice lists the same
    iterations (iteration-split or ragged campaigns).  A batch is an
    ``(n, m)`` matrix when its iterations pool the same number of samples,
    else a list of 1-D rows; it is a fresh array the caller may sort in
    place.  Every layout takes the same path: each slice's rows are copied
    straight to their pooled destination, at the offset a per-row running
    count of the samples already placed gives (one strided copy per slice
    when its rows are contiguous and share that offset, as in a regular
    campaign).  Only the batch's rows are read, so a finalize holds about
    ``max_samples`` pooled samples.
    """
    parts = _sorted_segments(segments)
    labels = [np.asarray(iterations) for iterations, _ in parts]
    iterations = np.unique(np.concatenate(labels))
    n = len(iterations)
    # each slice's rows as pooled-row positions, and the slices' row widths
    positions = [np.searchsorted(iterations, its) for its in labels]
    widths = np.array([math.prod(rows.shape[1:]) for _, rows in parts])
    # placed[s, k]: samples slice s adds to pooled row k
    placed = np.zeros((len(parts), n), dtype=np.int64)
    for s, p in enumerate(positions):
        placed[s, p] = widths[s]
    size = max(1, max_samples * n // int(placed.sum()))
    edges = np.append(np.arange(0, n, size), n)
    # bounds[s, b]: slice s's first row at or after pooled row edges[b]
    bounds = np.array([np.searchsorted(p, edges) for p in positions])
    widths = widths.tolist()
    for b in range(len(edges) - 1):
        lo, hi = bounds[:, b].tolist(), bounds[:, b + 1].tolist()
        counts = placed[:, edges[b] : edges[b + 1]]
        sizes = counts.sum(axis=0)
        # the running count: where each slice's piece starts in each row
        offsets = np.cumsum(counts, axis=0) - counts
        covered = counts > 0
        # slices whose rows of the batch all start at one column offset
        aligned = (
            np.where(covered, offsets, -1).max(axis=1)
            == np.where(covered, offsets, np.iinfo(np.int64).max).min(axis=1)
        ).tolist()
        regular = bool(np.all(sizes == sizes[0]))
        pooled = np.empty(int(sizes.sum()))
        matrix = pooled.reshape(len(sizes), -1) if regular else None
        starts = np.cumsum(sizes) - sizes
        for (_, rows), p, at, flat, width, i, j in zip(
            parts, positions, offsets, aligned, widths, lo, hi
        ):
            if i == j:
                continue
            data = rows[i:j].reshape(j - i, width)
            first, last = int(p[i]) - edges[b], int(p[j - 1]) - edges[b] + 1
            if regular and flat and last - first == j - i:
                # contiguous rows at one column offset: one strided copy
                column = int(at[first])
                matrix[first:last, column : column + width] = data
                continue
            for k, row in zip((p[i:j] - edges[b]).tolist(), data):
                start = int(starts[k] + at[k])
                pooled[start : start + width] = row
        yield matrix if regular else np.split(pooled, starts[1:])


def _iteration_rows(segments) -> _Batch:
    """All pooled iteration rows as one batch (see :func:`_iteration_batches`)."""
    return next(_iteration_batches(segments, max_samples=sys.maxsize))


def _application_row(segments, limit: int) -> np.ndarray:
    """The application-level group, stratified to at most ``limit`` samples.

    Up to ``limit`` samples, the row is every slice's samples in serial
    order.  Above it, the strided ranks of
    :func:`~repro.stats.selection.stratified_subsample` are selected from
    the segments in a few counting passes
    (:func:`~repro.stats.selection.select_sorted`), bit for bit the values
    of the sorted row, without reading the row into memory.
    """
    parts = [rows for _, rows in _sorted_segments(segments)]
    sizes = [math.prod(rows.shape) for rows in parts]
    if sum(sizes) > limit:
        return select_sorted(parts, stratified_ranks(sum(sizes), limit))
    row = np.empty(sum(sizes))
    start = 0
    for rows, size in zip(parts, sizes):
        row[start : start + size].reshape(rows.shape)[...] = rows[:]
        start += size
    return row


# ----------------------------------------------------------------------
@register_analysis("percentiles")
class PercentilesPass(AnalysisPass):
    """Per-application-iteration percentile trajectories (Figures 4/6/8)."""

    title = "per-iteration percentile trajectories (Figures 4/6/8)"

    def __init__(self, percentiles: Tuple[float, ...] = DEFAULT_PERCENTILES) -> None:
        self.percentiles = tuple(percentiles)

    def prepare(self, context: AnalysisContext) -> Any:
        # one (key, (iterations, samples)) segment per slice
        return []

    def accumulate_columns_split(self, block, context):
        return [[segment] for segment in _slice_segments(block)]

    def merge(self, state, other):
        return _extend_segments(state, other)

    def finalize(self, state, context: AnalysisContext) -> PercentileSeries:
        if not state:
            raise ValueError("percentiles pass saw no shards")
        levels = list(self.percentiles)

        # the dense path's per-iteration rows, bit for bit, sorted in place
        # (each batch is a fresh regrouping) and scaled after the sort,
        # which ×1e3 cannot reorder
        def table(matrix: np.ndarray) -> np.ndarray:
            matrix.sort(axis=-1)
            matrix *= 1.0e3
            return sorted_percentiles(matrix, levels)

        values = np.concatenate(
            [
                table(batch)
                if isinstance(batch, np.ndarray)
                else np.column_stack([table(row) for row in batch])
                for batch in _iteration_batches(state)
            ],
            axis=1,
        )
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
    shards per iteration; it is ``None`` when the pass was built with
    ``application_iteration=False``.
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
        application_iteration: bool = True,
    ) -> None:
        self.alpha = float(alpha)
        #: the application-level group and each application-iteration row
        #: are stratified down to this many samples (Shapiro–Wilk's
        #: approximation is defined up to n = 5000)
        self.max_application_samples = int(max_application_samples)
        #: also run the battery at the application-iteration level (pooled
        #: across shards per iteration; the §4.1 table's "iterations
        #: passing" counts)
        self.application_iteration = bool(application_iteration)

    def prepare(self, context: AnalysisContext) -> Dict[str, Any]:
        return {
            # one (key, (iterations, samples)) segment per slice, the
            # source of both the application and the iteration rows
            "segments": [],
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
        states = []
        for s, segment in enumerate(_slice_segments(block)):
            state = self.prepare(context)
            rows = slice(s * n_iterations, (s + 1) * n_iterations)
            for name in TEST_NAMES:
                state["pass_counts"][name] = int(np.sum(passed[name][rows]))
            state["n_groups"] = n_iterations
            state["group_size"] = n_threads
            state["segments"].append(segment)
            states.append(state)
        return states

    def merge(self, state, other):
        _extend_segments(state["segments"], other["segments"])
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
        vector, bit for bit (:func:`_iteration_batches`), stratified by
        :func:`~repro.stats.selection.stratified_subsample`, so the counts
        are exactly those of the battery run on the application-iteration
        rows of :func:`~repro.core.aggregation.aggregate`.
        """
        counts = dict.fromkeys(TEST_NAMES, 0)
        n_iterations = 0
        for batch in _iteration_batches(segments):
            # ragged batches (iterations pooling unequal sample counts) run
            # row by row
            for rows in [batch] if isinstance(batch, np.ndarray) else batch:
                report = battery.run(
                    stratified_subsample(rows, self.max_application_samples)
                )
                for name in TEST_NAMES:
                    counts[name] += int(np.sum(report.outcomes[name].passed))
                n_iterations += report.n_groups
        return counts, n_iterations

    def finalize(self, state, context: AnalysisContext) -> NormalityResult:
        if state["n_groups"] == 0:
            raise ValueError("normality pass saw no shards")
        battery = NormalityBattery(alpha=self.alpha)
        app_report = battery.run(
            _application_row(state["segments"], self.max_application_samples)
        )
        rates = {
            name: state["pass_counts"][name] / state["n_groups"] for name in TEST_NAMES
        }
        iteration_counts: Optional[Dict[str, int]] = None
        n_iterations = 0
        if self.application_iteration:
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

    The fractions are integer tallies and the gap/IQR summary statistics
    come from the re-assembled dense arrays; ``analysis`` carries the full
    per-group :class:`~repro.core.laggard.LaggardAnalysis` behind the
    exemplar selection of Figures 5/7/9.
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
    analysis: LaggardAnalysis

    @property
    def laggard_fraction(self) -> float:
        return self.laggard_count / self.n_groups if self.n_groups else 0.0

    def exemplar(self, iteration_class: IterationClass) -> Optional[Tuple[int, ...]]:
        """Key of the most typical group of a class (median gap within class),
        from the per-group analysis (bit-identical to the dense path)."""
        return self.analysis.exemplar(iteration_class)

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

    def __init__(
        self,
        threshold_s: float = DEFAULT_LAGGARD_THRESHOLD_S,
        wide_iqr_s: float = DEFAULT_WIDE_IQR_S,
    ) -> None:
        if threshold_s <= 0:
            raise ValueError("threshold_s must be positive")
        self.threshold_s = float(threshold_s)
        self.wide_iqr_s = float(wide_iqr_s)

    def prepare(self, context: AnalysisContext) -> Dict[str, Any]:
        return {
            "n_groups": 0,
            "laggard_count": 0,
            "class_counts": {cls.value: 0 for cls in IterationClass},
            "segments": [],
        }

    def accumulate_columns_split(self, block, context):
        n_slices, n_iterations, n_threads = block.cube.shape
        ordered = block.sorted_cube.reshape(n_slices * n_iterations, n_threads)
        # each group's np.median, max and np.percentile quartiles, over the
        # whole block at once, read off the block's shared sort bit for bit; a
        # slice keeps its medians, maxima, IQRs and class codes (the gaps
        # and flags are derived again at finalize)
        median = sorted_median(ordered)
        maximum = ordered[:, -1].copy()
        q75, q25 = sorted_percentiles(ordered, [75.0, 25.0])
        iqr = q75 - q25
        has_laggard = maximum - median > self.threshold_s
        codes = group_laggard_codes(iqr, has_laggard, wide_iqr_s=self.wide_iqr_s)
        states = []
        for s, sl in enumerate(block.slices):
            state = self.prepare(context)
            rows = slice(s * n_iterations, (s + 1) * n_iterations)
            counts = np.bincount(codes[rows], minlength=len(IterationClass))
            for k, cls in enumerate(IterationClass):
                state["class_counts"][cls.value] = int(counts[k])
            state["n_groups"] = n_iterations
            state["laggard_count"] = int(np.sum(has_laggard[rows]))
            state["segments"].append(
                (
                    _segment_key(sl, block),
                    (
                        (sl.trial, sl.process),
                        block.iterations.copy(),
                        median[rows],
                        maximum[rows],
                        iqr[rows],
                        codes[rows],
                    ),
                )
            )
            states.append(state)
        return states

    def merge(self, state, other):
        state["n_groups"] += other["n_groups"]
        state["laggard_count"] += other["laggard_count"]
        for name, count in other["class_counts"].items():
            state["class_counts"][name] += count
        _extend_segments(state["segments"], other["segments"], labels=1)
        return state

    def finalize(self, state, context: AnalysisContext) -> LaggardsResult:
        if state["n_groups"] == 0:
            raise ValueError("laggards pass saw no shards")
        parts = _sorted_segments(state["segments"])
        analysis = LaggardAnalysis(
            slice_keys=np.array([p[0] for p in parts], dtype=np.int64),
            slice_sizes=np.array([len(p[1]) for p in parts], dtype=np.int64),
            iterations=np.concatenate([p[1] for p in parts]),
            median_s=np.concatenate([p[2] for p in parts]),
            max_s=np.concatenate([p[3] for p in parts]),
            iqr_s=np.concatenate([p[4] for p in parts]),
            codes=np.concatenate([p[5] for p in parts]),
            threshold_s=self.threshold_s,
            wide_iqr_s=self.wide_iqr_s,
        )
        # summary statistics from the re-assembled dense arrays (the gaps
        # are the fold's elementwise maximum - median, so the same bits)
        gap = analysis.gap_s
        return LaggardsResult(
            n_groups=state["n_groups"],
            laggard_count=state["laggard_count"],
            class_counts=dict(state["class_counts"]),
            threshold_s=self.threshold_s,
            wide_iqr_s=self.wide_iqr_s,
            mean_gap_s=float(np.mean(gap)),
            max_gap_s=float(np.max(gap)),
            mean_iqr_s=float(np.mean(analysis.iqr_s)),
            max_iqr_s=float(np.max(analysis.iqr_s)),
            mean_median_s=float(np.mean(analysis.median_s)),
            analysis=analysis,
        )


# ----------------------------------------------------------------------
@register_analysis("reclaimable")
class ReclaimablePass(AnalysisPass):
    """§4.2 reclaimable time and idle-ratio summary."""

    title = "reclaimable time and idle ratio (§4.2)"

    def prepare(self, context: AnalysisContext) -> Dict[str, Any]:
        return {"segments": [], "n_threads": 0}

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
            state["segments"].append(
                (_segment_key(sl, block), (reclaim[rows], ratios[rows]))
            )
            states.append(state)
        return states

    def merge(self, state, other):
        state["n_threads"] = max(state["n_threads"], other["n_threads"])
        state["segments"].extend(other["segments"])
        return state

    def finalize(self, state, context: AnalysisContext) -> ReclaimableSummary:
        if not state["n_threads"]:
            raise ValueError("reclaimable pass saw no shards")
        n_threads = state["n_threads"]
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


# ----------------------------------------------------------------------
@register_analysis("earlybird")
class EarlybirdPass(AnalysisPass):
    """Early-bird gain quantification over the deterministic strided subset.

    The global index of each process-iteration group (via the context)
    determines whether it lies on the evaluation stride, so the evaluated
    subset — and therefore every mean — is every ``stride``-th group in
    serial (trial, process, iteration) order, as in
    ``dataset.to_dense().reshape(-1, n_threads)[::stride]``, regardless
    of sharding.  Accumulation only keeps the selected groups' arrival
    rows, keyed by global index; finalize replays the FIFO injection model
    once over all of them (:meth:`EarlyBirdModel.evaluate_groups`, whose
    per-group results do not depend on the batch).  Memory is bounded by
    ``max_groups`` rows.
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
