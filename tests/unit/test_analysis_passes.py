"""Unit tests for the analysis-pass registry, canonical blocks and passes."""

import pickle
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    DEFAULT_EARLYBIRD_MAX_GROUPS,
    AnalysisContext,
    ColumnarAnalyzer,
    analyze_dataset,
    available_analyses,
    get_analysis,
    register_analysis,
    resolve_analyses,
    run_columnar_analyses,
    unregister_analysis,
)
from repro.analysis import passes
from repro.analysis.passes import (
    EarlybirdPass,
    HistogramPass,
    LaggardsPass,
    PercentilesPass,
)
from repro.core import aggregation
from repro.core.aggregation import (
    AggregationLevel,
    ShardSlice,
    aggregate,
    campaign_block,
    canonical_block,
)
from repro.core.earlybird import EarlyBirdModel
from repro.core.laggard import IterationClass
from repro.core.timing import TimingDataset
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession
from repro.io.shard_store import ShardStore, StoredRows
from repro.stats.histogram import fixed_width_histogram
from repro.stats.percentiles import percentile_table
from repro.stats.selection import stratified_subsample
from shards import dataset_shard, dataset_shards, joined_columns, shards_of

from oracles.dense import (
    NormalityStudy,
    analyze_laggards,
    group_laggard_metrics,
    per_iteration_samples,
    summarize_reclaimable,
)

README = Path(__file__).resolve().parents[2] / "README.md"

BUILTIN = ("earlybird", "histogram", "laggards", "normality", "percentiles", "reclaimable")


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(42)
    times = np.abs(rng.normal(25e-3, 0.1e-3, size=(2, 2, 10, 32)))
    times[:, :, ::2, 0] += 4e-3
    return TimingDataset.from_compute_times(times, {"application": "lagdemo"})


@pytest.fixture(scope="module")
def shards(dataset):
    """Per-(trial, process) shards of the dataset (one-slice blocks)."""
    return dataset_shards(dataset)


@pytest.fixture(scope="module")
def context(dataset):
    return AnalysisContext.from_dataset(dataset)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTIN) <= set(available_analyses())

    def test_get_analysis_instantiates(self):
        assert get_analysis("percentiles").name == "percentiles"
        with pytest.raises(ValueError):
            get_analysis("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):

            @register_analysis("percentiles")
            class Clash(PercentilesPass):
                pass

    def test_custom_pass_round_trip(self, shards, context):
        """The README's custom pass, registered verbatim, so it cannot rot."""
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
        (source,) = [b for b in blocks if '@register_analysis("max-arrival")' in b]
        namespace = {}
        exec(source, namespace)
        expected = max(float(s.cube.max()) for s in shards)
        try:
            results = run_columnar_analyses(shards, ["max-arrival"], context)
            assert results["max-arrival"] == expected
        finally:
            unregister_analysis("max-arrival")
        assert "max-arrival" not in available_analyses()

    def test_resolve_analyses_forms(self):
        passes = resolve_analyses("all")
        assert {p.name for p in passes} == set(available_analyses())
        only = resolve_analyses([PercentilesPass(), "laggards"])
        assert [p.name for p in only] == ["percentiles", "laggards"]
        with pytest.raises(ValueError):
            resolve_analyses(["laggards", "laggards"])


def _process_slices(dataset, perm=None):
    """The dataset's columns with one slice per (trial, process) (rows
    optionally permuted inside each slice)."""
    columns = {name: dataset.column(name) for name in dataset.columns}
    trial, process = columns["trial"], columns["process"]
    slices = []
    for t in dataset.trials:
        for q in dataset.processes:
            rows = np.flatnonzero((trial == t) & (process == q))
            slices.append(ShardSlice(int(t), int(q), int(rows[0]), int(rows[-1]) + 1))
    if perm is not None:
        order = np.concatenate(
            [sl.start + perm.permutation(sl.n_samples) for sl in slices]
        )
        columns = {name: arr[order] for name, arr in columns.items()}
    return columns, slices


def _assert_dense_cube(block, dataset):
    expected = aggregate(dataset, AggregationLevel.PROCESS_ITERATION)
    assert [(sl.trial, sl.process) for sl in block.slices] == [
        (int(t), int(p)) for t in dataset.trials for p in dataset.processes
    ]
    np.testing.assert_array_equal(block.iterations, dataset.iterations)
    np.testing.assert_array_equal(
        block.cube.reshape(expected.values.shape), expected.values
    )
    for s, sl in enumerate(block.slices):
        np.testing.assert_array_equal(
            block.columns["compute_time_s"][sl.start : sl.stop], block.cube[s].ravel()
        )


class TestCanonicalBlock:
    def test_whole_dataset_is_one_slice_per_process(self, dataset):
        _assert_dense_cube(canonical_block(*_process_slices(dataset)), dataset)

    def test_row_order_does_not_matter(self, dataset):
        columns, slices = _process_slices(dataset, perm=np.random.default_rng(0))
        _assert_dense_cube(canonical_block(columns, slices), dataset)

    def test_trial_wide_slice_rejected(self, dataset):
        # a slice addresses one process: rows of its trial's other
        # processes lie outside it
        columns, slices = _process_slices(dataset)
        first, second = slices[:2]
        assert (first.trial, first.stop) == (second.trial, second.start)
        with pytest.raises(ValueError, match="outside"):
            canonical_block(columns, [first._replace(stop=second.stop)])

    def test_event_backend_blocks_hold_one_slice_per_process(self):
        config = CampaignConfig.smoke("minife").with_backend("event")
        result = CampaignSession(config).run()
        shards = shards_of(result.iter_column_blocks())
        assert [shard.slices[0].sort_key for shard in shards] == [(0, 0), (0, 1)]
        for shard in shards:
            block = canonical_block(shard.columns, shard.slices)
            _assert_dense_cube(block, TimingDataset(shard.columns))

    def test_producer_blocks_are_zero_copy(self):
        times = np.abs(np.random.default_rng(1).normal(1e-3, 1e-4, (3, 4, 5)))
        block = campaign_block([(0, 0), (0, 1), (1, 0)], times)
        assert block.cube is times
        assert [(sl.trial, sl.process) for sl in block.slices] == [(0, 0), (0, 1), (1, 0)]
        for sl, plane in zip(block.slices, times):
            shard = block.rows(sl)
            assert np.shares_memory(shard.columns["compute_time_s"], plane)
            assert np.shares_memory(shard.cube, plane)

    def test_non_dense_rows_rejected(self, shards):
        columns, slices = joined_columns(shards[:1])
        short = slices[0]._replace(stop=slices[0].stop - 1)
        with pytest.raises(ValueError, match="not dense"):
            canonical_block(columns, [short])
        repeated = dict(columns, thread=np.array(columns["thread"]))
        repeated["thread"][1] = repeated["thread"][0]
        with pytest.raises(ValueError, match="not dense"):
            canonical_block(repeated, slices)

    def test_rows_outside_declared_slice_rejected(self, shards):
        columns, slices = joined_columns(shards[:1])
        (sl,) = slices
        with pytest.raises(ValueError, match="outside"):
            canonical_block(columns, [sl._replace(trial=sl.trial + 1)])
        with pytest.raises(ValueError, match="outside"):
            canonical_block(columns, [sl._replace(process=sl.process + 1)])

    def test_empty_slice_list_rejected(self, shards):
        columns, _ = joined_columns(shards)
        with pytest.raises(ValueError):
            canonical_block(columns, [])

    def test_group_lookup_is_indexed(self, dataset):
        grouped = aggregate(dataset, AggregationLevel.PROCESS_ITERATION)
        assert grouped._index is None
        row = grouped.group((1, 1, 3))
        assert grouped._index is not None
        np.testing.assert_array_equal(
            row, dataset.select(trial=1, process=1, iteration=3).compute_times_s
        )
        with pytest.raises(KeyError):
            grouped.group((9, 9, 9))


SMOKE_CASES = [
    f"{app}-{backend}"
    for app in ("minife", "minimd", "miniqmc")
    for backend in ("campaign", "event")
]


@pytest.fixture(scope="module", params=["lagdemo", *SMOKE_CASES])
def case(request, dataset, shards, context):
    """``(dataset, shards, context)``: the laggard demo's (trial, process)
    shards, or a smoke campaign's own shards."""
    if request.param == "lagdemo":
        return dataset, shards, context
    app, backend = request.param.split("-")
    result = CampaignSession(CampaignConfig.smoke(app).with_backend(backend)).run()
    return (
        result.dataset,
        shards_of(result.iter_column_blocks()),
        AnalysisContext.from_dataset(result.dataset),
    )


class TestPassesAgainstDenseOracles:
    """Every pass folded over real shards equals the dense reference
    analysis over :func:`aggregate`, bit for bit."""

    def test_percentiles(self, case):
        ds, shards, context = case
        series = run_columnar_analyses(shards, ["percentiles"], context)["percentiles"]
        expected = percentile_table(
            per_iteration_samples(ds) * 1.0e3, series.percentiles, axis=-1
        )
        np.testing.assert_array_equal(series.values, expected)

    def test_histogram(self, case):
        ds, shards, context = case
        hist = run_columnar_analyses(shards, [HistogramPass(50e-6)], context)["histogram"]
        expected = fixed_width_histogram(ds.compute_times_s, 50e-6)
        np.testing.assert_array_equal(hist.counts, expected.counts)
        np.testing.assert_array_equal(hist.edges, expected.edges)

    def test_laggards(self, case):
        ds, shards, context = case
        result = run_columnar_analyses(shards, ["laggards"], context)["laggards"]
        expected = analyze_laggards(ds)
        assert result.laggard_fraction == expected.laggard_fraction
        assert result.analysis.keys == expected.keys
        for name in ("median_s", "max_s", "gap_s", "iqr_s", "has_laggard"):
            np.testing.assert_array_equal(
                getattr(result.analysis, name), getattr(expected, name)
            )
        assert result.analysis.classes == expected.classes

    def test_reclaimable(self, case):
        ds, shards, context = case
        summary = run_columnar_analyses(shards, ["reclaimable"], context)["reclaimable"]
        assert summary == summarize_reclaimable(ds)

    def test_normality(self, case):
        ds, shards, context = case
        result = run_columnar_analyses(shards, ["normality"], context)["normality"]
        study = NormalityStudy(ds)
        assert result.application_rejected == study.application_rejects_normality()
        assert (
            result.application_pass_rates
            == study.level_result(AggregationLevel.APPLICATION).pass_rates()
        )
        assert (
            result.application_iteration_pass_counts
            == study.application_iteration_pass_counts()
        )
        assert result.n_iterations == ds.n_iterations
        assert (
            result.process_iteration_pass_rates == study.process_iteration_pass_rates()
        )

    def test_earlybird(self, case):
        ds, shards, context = case
        result = run_columnar_analyses(shards, ["earlybird"], context)["earlybird"]
        groups = aggregate(ds, AggregationLevel.PROCESS_ITERATION).values
        stride = max(len(groups) // DEFAULT_EARLYBIRD_MAX_GROUPS, 1)
        expected = EarlyBirdModel().evaluate_groups(groups[::stride])
        assert result["groups_evaluated"] == len(groups[::stride])
        for key in ("improvement_s", "speedup", "hidden_s", "potential_overlap_s"):
            assert result[f"mean_{key}"] == float(np.mean(expected[key]))

    def test_full_report(self, case):
        ds, shards, context = case
        results = run_columnar_analyses(shards, "all", context)
        streaming = results.report().as_dict()
        merged = analyze_dataset(ds).report().as_dict()
        assert streaming == merged


class TestShardOrderInvariance:
    def test_exact_products_survive_shuffling(self, shards, context):
        rng = np.random.default_rng(7)
        shuffled = list(shards)
        rng.shuffle(shuffled)
        a = run_columnar_analyses(shards, "all", context)
        b = run_columnar_analyses(shuffled, "all", context)
        assert a.report().as_dict() == b.report().as_dict()
        np.testing.assert_array_equal(
            a["percentiles"].values, b["percentiles"].values
        )
        np.testing.assert_array_equal(a["histogram"].counts, b["histogram"].counts)
        assert a["laggards"].analysis.keys == b["laggards"].analysis.keys

    def test_iteration_split_shards_keep_exact_products(self, dataset, context):
        """Slices whose shards list different iteration sets (each (trial,
        process) split unevenly by iteration, shards shuffled) still give
        the dense per-iteration rows: percentiles and the
        application-iteration normality counts equal the dense oracles."""
        shards = [
            dataset_shard(
                dataset.select(trial=int(t), process=int(p)).select_iterations(part),
                t,
                p,
            )
            for t in dataset.trials
            for p in dataset.processes
            for part in (slice(0, 3 + int(p)), slice(3 + int(p), None))
        ]
        np.random.default_rng(11).shuffle(shards)
        results = run_columnar_analyses(shards, ["percentiles", "normality"], context)
        series = results["percentiles"]
        expected = percentile_table(
            per_iteration_samples(dataset) * 1.0e3, series.percentiles, axis=-1
        )
        np.testing.assert_array_equal(series.values, expected)
        assert (
            results["normality"].application_iteration_pass_counts
            == NormalityStudy(dataset).application_iteration_pass_counts()
        )

    def test_iteration_rows_pool_ragged_iteration_sets(self):
        """Iterations pooled from different numbers of slices come back as
        1-D rows, each the serial-order concatenation of its slices' rows."""
        rng = np.random.default_rng(5)
        labels = {(0, 0): [0, 1, 2], (0, 1): [1, 2], (1, 0): [0, 1, 2]}
        cubes = {key: rng.normal(size=(len(its), 4)) for key, its in labels.items()}
        def segments(keys):
            return [(key, (np.array(labels[key]), cubes[key])) for key in keys]

        rows = passes._iteration_rows(segments([(1, 0), (0, 1), (0, 0)]))
        expected = [
            np.concatenate(
                [cubes[key][its.index(i)] for key, its in sorted(labels.items()) if i in its]
            )
            for i in range(3)
        ]
        assert isinstance(rows, list) and len(rows) == 3
        for row, want in zip(rows, expected):
            np.testing.assert_array_equal(row, want)
        np.testing.assert_array_equal(
            passes._iteration_rows(segments([(1, 0), (0, 0)])),
            np.concatenate([cubes[(0, 0)], cubes[(1, 0)]], axis=1),
        )

    @pytest.mark.parametrize("size", [3, 4])
    def test_iteration_batches_end_with_a_short_batch(self, dataset, shards, size):
        """With 10 iterations, not a multiple of the batch size, the
        batches still give the dense pooled rows, the last batch short."""
        segments = [
            segment
            for shard in reversed(shards)
            for segment in passes._slice_segments(shard)
        ]
        # each iteration pools 4 slices x 32 threads
        batches = list(passes._iteration_batches(segments, size * 128))
        assert [len(batch) for batch in batches] == [size] * (10 // size) + [10 % size]
        np.testing.assert_array_equal(
            np.concatenate(batches), per_iteration_samples(dataset)
        )

    def test_normality_subsamples_large_iteration_rows(self):
        """Iteration rows above ``max_application_samples`` (5760 pooled
        samples here) are stratified like the dense oracle's, instead of
        overflowing Shapiro–Wilk's n <= 5000."""
        rng = np.random.default_rng(3)
        times = rng.normal(25e-3, 0.1e-3, size=(3, 40, 3, 48))
        times[:, :, 1] = rng.lognormal(-3.7, 0.5, size=(3, 40, 48))
        big = TimingDataset.from_compute_times(times, {"application": "wide"})
        big_shards = dataset_shards(big)
        result = run_columnar_analyses(
            big_shards, ["normality"], AnalysisContext.from_dataset(big)
        )["normality"]
        study = NormalityStudy(big)
        counts = study.application_iteration_pass_counts()
        assert result.application_iteration_pass_counts == counts
        assert counts["dagostino"] == 2
        assert result.application_rejected == study.application_rejects_normality()


    def test_iteration_split_shards_fold_in_dense_order(self, dataset, context):
        """Each (trial, process) arriving as two iteration-split shards, in
        order or reversed, finalizes to the dense group order: the laggard
        keys and classes are the dense oracle's, and both orders give the
        same products byte for byte."""
        pieces = [
            dataset_shard(
                dataset.select(trial=int(t), process=int(p)).select_iterations(part),
                t,
                p,
            )
            for t in dataset.trials
            for p in dataset.processes
            for part in (slice(0, 4), slice(4, None))
        ]
        names = ["laggards", "reclaimable", "percentiles", "normality"]
        forward = run_columnar_analyses(pieces, names, context)
        backward = run_columnar_analyses(pieces[::-1], names, context)
        dense = analyze_laggards(dataset)
        for results in (forward, backward):
            assert results["laggards"].analysis.keys == dense.keys
            assert results["laggards"].analysis.classes == dense.classes
        for name in names:
            assert pickle.dumps(forward[name]) == pickle.dumps(backward[name]), name


LAYOUTS = ["regular", "iteration-split", "ragged"]

#: ragged layout: the iterations each (trial, process) keeps
RAGGED_ITERATIONS = {(0, 1): slice(2, None), (1, 1): slice(0, 6)}


def _layout_shards(dataset, layout):
    """The dataset's samples as shards of one layout, shuffled: one shard
    per (trial, process); each (trial, process) split unevenly by
    iteration; or two (trial, process) keeping only some iterations, so
    those iterations pool fewer samples."""
    shards = []
    for t in dataset.trials:
        for p in dataset.processes:
            part = dataset.select(trial=int(t), process=int(p))
            if layout == "iteration-split":
                pieces = [slice(0, 3 + int(p)), slice(3 + int(p), None)]
            elif layout == "ragged":
                pieces = [RAGGED_ITERATIONS.get((int(t), int(p)), slice(None))]
            else:
                pieces = [slice(None)]
            shards.extend(
                dataset_shard(part.select_iterations(piece), t, p) for piece in pieces
            )
    np.random.default_rng(13).shuffle(shards)
    return shards


def _segments(shards):
    return [segment for shard in shards for segment in passes._slice_segments(shard)]


def _pooled_rows(dataset, shards):
    """Each iteration's samples, (trial, process) by (trial, process) in
    serial order, from the slices that hold that iteration."""
    held = {
        (*shard.slices[0].sort_key, int(i)) for shard in shards for i in shard.iterations
    }
    return [
        np.concatenate(
            [
                dataset.select(trial=int(t), process=int(p), iteration=int(i)).compute_times_s
                for t in dataset.trials
                for p in dataset.processes
                if (int(t), int(p), int(i)) in held
            ]
        )
        for i in dataset.iterations
    ]


def _rows_of(batches):
    return [row for batch in batches for row in batch]


class TestIterationBatches:
    """The pooled iteration rows the percentiles and normality finalizes
    read, batch by batch, for every slice layout."""

    @pytest.mark.parametrize("max_samples", [1, 300, sys.maxsize], ids=["row", "few", "all"])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_batches_give_the_dense_pooled_rows(self, dataset, layout, max_samples):
        shards = _layout_shards(dataset, layout)
        segments = _segments(shards)
        batches = list(passes._iteration_batches(segments, max_samples))
        total = sum(shard.n_samples for shard in shards)
        size = max(1, max_samples * dataset.n_iterations // total)
        assert all(len(batch) <= size for batch in batches)
        assert sum(len(batch) for batch in batches) == dataset.n_iterations
        expected = _pooled_rows(dataset, shards)
        got = _rows_of(batches)
        assert len(got) == len(expected)
        for row, want in zip(got, expected):
            np.testing.assert_array_equal(row, want)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_ragged_iterations_come_back_as_row_lists(self, dataset, layout):
        shards = _layout_shards(dataset, layout)
        batch = passes._iteration_rows(_segments(shards))
        if layout == "ragged":
            assert isinstance(batch, list)
            assert {len(row) for row in batch} == {96, 128}
        else:
            assert isinstance(batch, np.ndarray)
            np.testing.assert_array_equal(batch, per_iteration_samples(dataset))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_sorting_a_batch_leaves_the_segments_untouched(self, dataset, layout):
        segments = _segments(_layout_shards(dataset, layout))
        before = _rows_of(passes._iteration_batches(segments, 300))
        for batch in passes._iteration_batches(segments, 300):
            for row in [batch] if isinstance(batch, np.ndarray) else batch:
                row.sort(axis=-1)
                row[...] = 0.0
        after = _rows_of(passes._iteration_batches(segments, 300))
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("max_samples", [1, 300, sys.maxsize], ids=["row", "few", "all"])
    def test_store_backed_segments_read_the_same_batches(
        self, tmp_path, dataset, shards, max_samples
    ):
        store = ShardStore.create(tmp_path / "c.store", spill_threshold_bytes=4096)
        for shard in shards:
            store.append_block(shard)
        store.finalize()
        segments = [
            segment
            for block in ShardStore.open(tmp_path / "c.store").iter_column_blocks()
            for segment in passes._slice_segments(block)
        ]
        assert len(segments) == len(shards)
        assert all(isinstance(rows, StoredRows) for _, (_, rows) in segments)
        batches = list(passes._iteration_batches(segments, max_samples))
        np.testing.assert_array_equal(
            np.concatenate(batches), per_iteration_samples(dataset)
        )

    @pytest.mark.parametrize("limit", [100, 1000, 5000])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_application_row_is_the_stratified_sample(self, dataset, layout, limit):
        shards = _layout_shards(dataset, layout)
        samples = np.concatenate([shard.cube.reshape(-1) for shard in shards])
        row = passes._application_row(_segments(shards), limit)
        if len(samples) > limit:
            np.testing.assert_array_equal(row, stratified_subsample(samples, limit))
        else:
            assert len(row) == len(samples)
            np.testing.assert_array_equal(np.sort(row), np.sort(samples))


class TestExemplars:
    """The exemplar groups behind Figures 5/7/9, picked from the streamed
    per-group laggard analysis."""

    @pytest.mark.parametrize("cls", list(IterationClass), ids=lambda c: c.value)
    def test_exemplar_is_the_dense_exemplar_of_its_class(self, case, cls):
        ds, shards, context = case
        result = run_columnar_analyses(shards, ["laggards"], context)["laggards"]
        dense = analyze_laggards(ds)
        key = result.exemplar(cls)
        assert key == dense.exemplar(cls)
        members = [k for k, c in zip(dense.keys, dense.classes) if c is cls]
        assert result.class_fraction(cls) == len(members) / len(dense.keys)
        if key is None:
            assert not members
        else:
            assert key in members

    def test_exemplars_are_shard_order_free(self, shards, context):
        shuffled = list(shards)
        np.random.default_rng(17).shuffle(shuffled)
        a = run_columnar_analyses(shards, ["laggards"], context)["laggards"]
        b = run_columnar_analyses(shuffled, ["laggards"], context)["laggards"]
        assert a.exemplar(IterationClass.LAGGARD) is not None
        for cls in IterationClass:
            assert a.exemplar(cls) == b.exemplar(cls)


class TestCompactLaggardState:
    """The laggards pass keeps arrays, not one key tuple and one class per
    group, and its analysis still answers as the dense oracle does."""

    def test_partials_hold_slice_keys_and_arrays(self, shards, context):
        block = shards[0]
        (state,) = LaggardsPass().accumulate_columns_split(block, context)
        ((_, payload),) = state["segments"]
        slice_key, iterations, *metrics, codes = payload
        assert slice_key == block.slices[0].sort_key
        assert isinstance(iterations, np.ndarray)
        np.testing.assert_array_equal(iterations, block.iterations)
        assert all(isinstance(array, np.ndarray) for array in metrics)
        assert codes.dtype == np.int8

    def test_fractions_counts_and_exemplars_equal_the_dense_oracle(self, case):
        ds, shards, context = case
        analysis = run_columnar_analyses(shards, ["laggards"], context)["laggards"].analysis
        # the oracle: the dense grouping's per-group metrics, classes and
        # key tuples, each exemplar picked by hand
        grouped = aggregate(ds, AggregationLevel.PROCESS_ITERATION)
        _, _, gap, _, has_laggard, codes = group_laggard_metrics(grouped.values)
        classes = [list(IterationClass)[code] for code in codes]
        assert analysis.keys == grouped.keys
        assert [analysis.key(i) for i in range(analysis.n_groups)] == grouped.keys
        assert analysis.classes == classes
        assert analysis.codes.dtype == np.int8
        assert analysis.laggard_fraction == float(np.mean(has_laggard))
        assert analysis.class_counts() == {
            cls: classes.count(cls) for cls in IterationClass
        }
        for cls in IterationClass:
            members = [i for i, c in enumerate(classes) if c is cls]
            assert analysis.class_fraction(cls) == float(
                np.mean([c is cls for c in classes])
            )
            if not members:
                assert analysis.exemplar(cls) is None
                continue
            gaps = gap[members]
            best = members[int(np.argmin(np.abs(gaps - np.median(gaps))))]
            assert analysis.exemplar(cls) == grouped.keys[best]

    def test_the_product_pickles(self, shards, context):
        analysis = run_columnar_analyses(shards, ["laggards"], context)["laggards"].analysis
        again = pickle.loads(pickle.dumps(analysis))
        assert again.keys == analysis.keys
        assert again.exemplar(IterationClass.LAGGARD) == analysis.exemplar(
            IterationClass.LAGGARD
        )


class TestLargeIterationRows:
    """Application-iteration rows above Shapiro–Wilk's n <= 5000 (5760
    pooled samples: 3 trials x 40 processes x 48 threads)."""

    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng(3)
        times = rng.normal(25e-3, 0.1e-3, size=(3, 40, 3, 48))
        times[:, :, 1] = rng.lognormal(-3.7, 0.5, size=(3, 40, 48))
        big = TimingDataset.from_compute_times(times, {"application": "wide"})
        return big, dataset_shards(big)

    @pytest.mark.parametrize("limit", [500, 2000, 5000])
    def test_pass_matches_the_oracle_at_every_limit(self, wide, limit):
        big, shards = wide
        result = run_columnar_analyses(
            shards,
            [passes.NormalityPass(max_application_samples=limit)],
            AnalysisContext.from_dataset(big),
        )["normality"]
        study = NormalityStudy(big, max_application_samples=limit)
        assert (
            result.application_iteration_pass_counts
            == study.application_iteration_pass_counts()
        )
        assert result.n_iterations == 3
        assert result.application_rejected == study.application_rejects_normality()
        assert (
            result.application_pass_rates
            == study.level_result(AggregationLevel.APPLICATION).pass_rates()
        )


class TestPassValidation:
    def test_empty_shard_stream_rejected(self, context):
        with pytest.raises(ValueError):
            run_columnar_analyses([], ["percentiles"], context)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            HistogramPass(0.0)
        with pytest.raises(ValueError):
            LaggardsPass(threshold_s=-1.0)

    def test_report_requires_core_passes(self, shards, context):
        results = run_columnar_analyses(shards, ["percentiles"], context)
        with pytest.raises(ValueError):
            results.report()


def _block(shard_list):
    """The shards as one canonical block."""
    return canonical_block(*joined_columns(shard_list))


def _partial_bytes(partials):
    # one pickle round-trip first normalises object-identity topology
    # without touching a value (see tests/integration/test_columnar_analysis)
    return pickle.dumps(pickle.loads(pickle.dumps(partials)))


class TestColumnarAnalyzer:
    """``ColumnarAnalyzer`` folds the blocks it is given as they are."""

    def test_producer_blocks_fold_without_a_layout_pass(
        self, shards, context, monkeypatch
    ):
        calls = []
        layout = aggregation._layout

        def counting(*args):
            calls.append(args)
            return layout(*args)

        monkeypatch.setattr(aggregation, "_layout", counting)
        times = np.stack([shard.cube[0] for shard in shards])
        calls.clear()
        block = campaign_block([s.slices[0].sort_key for s in shards], times)
        mapper = ColumnarAnalyzer(resolve_analyses(BUILTIN), context)
        partials = mapper(block)
        assert len(partials) == len(block.slices)
        assert calls == []

    def test_block_partials_equal_one_shard_partials(self, shards, context):
        mapper = ColumnarAnalyzer(resolve_analyses(BUILTIN), context)
        whole = mapper(_block(shards))
        one_by_one = [partial for shard in shards for partial in mapper(shard)]
        assert _partial_bytes(whole) == _partial_bytes(one_by_one)

    def test_dataset_block_yields_one_partial_per_process(self, dataset, context):
        mapper = ColumnarAnalyzer(resolve_analyses(BUILTIN), context)
        partials = mapper(canonical_block(*_process_slices(dataset)))
        assert len(partials) == dataset.n_trials * dataset.n_processes

    def test_concurrent_blocks_match_serial(self, shards, context):
        blocks = [_block(shards[:2]), _block(shards[2:])]
        mapper = ColumnarAnalyzer(resolve_analyses(BUILTIN), context)
        serial = [_partial_bytes(mapper(block)) for block in blocks]
        rounds = 10
        barrier = threading.Barrier(len(blocks))
        results = [[] for _ in blocks]
        errors = []

        def work(index):
            try:
                for _ in range(rounds):
                    barrier.wait()
                    results[index].append(_partial_bytes(mapper(blocks[index])))
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)
                barrier.abort()

        threads = [
            threading.Thread(target=work, args=(index,)) for index in range(len(blocks))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for index, expected in enumerate(serial):
            assert results[index] == [expected] * rounds


class TestSharedSortAndDeferredEarlybird:
    """One sort per block; the early-bird replay runs once, at finalize."""

    def test_sorted_cube_is_built_once_and_read_only(self, shards):
        block = _block(shards)
        ordered = block.sorted_cube
        assert ordered is block.sorted_cube
        assert not ordered.flags.writeable
        np.testing.assert_array_equal(ordered, np.sort(block.cube, axis=-1))

    @pytest.mark.parametrize(
        "per_block", [1, 3, None], ids=["1-slice", "3-slices", "one-block"]
    )
    def test_deferred_replay_equals_strided_batch(
        self, dataset, shards, context, per_block
    ):
        max_groups = 7
        size = per_block or len(shards)
        blocks = [_block(shards[i : i + size]) for i in range(0, len(shards), size)]
        earlybird = EarlybirdPass(max_groups=max_groups)
        groups = aggregate(dataset, AggregationLevel.PROCESS_ITERATION).values
        selected = groups[:: max(len(groups) // max_groups, 1)]
        assert 1 < len(selected) < len(groups)
        # accumulation keeps the selected rows only, no model results
        partials = [
            state
            for block in blocks
            for state in earlybird.accumulate_columns_split(block, context)
        ]
        kept = {index: row for state in partials for index, row in state.items()}
        np.testing.assert_array_equal(
            np.array([kept[index] for index in sorted(kept)]), selected
        )
        result = run_columnar_analyses(blocks, [earlybird], context)["earlybird"]
        expected = EarlyBirdModel().evaluate_groups(selected)
        assert result["groups_evaluated"] == len(selected)
        for key in ("improvement_s", "speedup", "hidden_s", "potential_overlap_s"):
            assert result[f"mean_{key}"] == float(np.mean(expected[key]))
