"""Unit tests for the analysis-pass registry, shard aggregation and passes."""

import pickle
import threading

import numpy as np
import pytest

from repro.analysis import (
    AnalysisContext,
    AnalysisPass,
    ColumnarAnalyzer,
    available_analyses,
    get_analysis,
    register_analysis,
    resolve_analyses,
    run_analyses,
    unregister_analysis,
)
from repro.analysis.passes import (
    HistogramPass,
    LaggardsPass,
    NormalityPass,
    PercentilesPass,
    ReclaimablePass,
)
from repro.core import aggregation
from repro.core.aggregation import (
    AggregationLevel,
    ShardSlice,
    aggregate,
    aggregate_shard,
)
from repro.core.analyzer import ThreadTimingAnalyzer
from repro.core.laggard import IterationClass
from repro.core.timing import TimingDataset, TimingShard

BUILTIN = ("earlybird", "histogram", "laggards", "normality", "percentiles", "reclaimable")


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(42)
    times = np.abs(rng.normal(25e-3, 0.1e-3, size=(2, 2, 10, 32)))
    times[:, :, ::2, 0] += 4e-3
    return TimingDataset.from_compute_times(times, {"application": "lagdemo"})


@pytest.fixture(scope="module")
def shards(dataset):
    """Per-(trial, process) shards of the dataset."""
    return [
        TimingShard.from_dataset(
            dataset.select(trial=int(t), process=int(p)), trial=int(t), process=int(p)
        )
        for t in dataset.trials
        for p in dataset.processes
    ]


@pytest.fixture(scope="module")
def context(dataset):
    return AnalysisContext.from_dataset(dataset, exact=True)


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
        @register_analysis("sample-count")
        class SampleCountPass(AnalysisPass):
            title = "total sample count"

            def prepare(self, context):
                return 0

            def accumulate(self, state, shard, context):
                return state + shard.n_samples

            def merge(self, a, b):
                return a + b

            def finalize(self, state, context):
                return state

        try:
            results = run_analyses(shards, ["sample-count"], context)
            assert results["sample-count"] == sum(s.n_samples for s in shards)
        finally:
            unregister_analysis("sample-count")
        assert "sample-count" not in available_analyses()

    def test_resolve_analyses_forms(self):
        passes = resolve_analyses("all")
        assert {p.name for p in passes} == set(available_analyses())
        only = resolve_analyses([PercentilesPass(), "laggards"])
        assert [p.name for p in only] == ["percentiles", "laggards"]
        with pytest.raises(ValueError):
            resolve_analyses(["laggards", "laggards"])


class TestAggregateShard:
    @pytest.mark.parametrize("level", list(AggregationLevel))
    def test_whole_dataset_shard_matches_aggregate(self, dataset, level):
        shard = TimingShard.from_dataset(dataset, trial=0, process=None)
        expected = aggregate(dataset, level)
        actual = aggregate_shard(shard, level)
        assert actual.keys == expected.keys
        np.testing.assert_array_equal(actual.values, expected.values)

    def test_row_order_does_not_matter(self, dataset):
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(dataset))
        shuffled = TimingShard(
            trial=0,
            process=None,
            columns={name: dataset.column(name)[perm] for name in dataset.columns},
        )
        expected = aggregate(dataset, AggregationLevel.PROCESS_ITERATION)
        actual = aggregate_shard(shuffled, AggregationLevel.PROCESS_ITERATION)
        assert actual.keys == expected.keys
        np.testing.assert_array_equal(actual.values, expected.values)

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


class TestPassesAgainstLegacy:
    """Every pass folded over real shards equals the in-memory analyzer."""

    def test_percentiles(self, dataset, shards, context):
        series = run_analyses(shards, ["percentiles"], context)["percentiles"]
        legacy = ThreadTimingAnalyzer(dataset).percentile_series()
        np.testing.assert_array_equal(series.values, legacy.values)
        assert series.percentiles == legacy.percentiles

    def test_histogram(self, dataset, shards, context):
        hist = run_analyses(shards, [HistogramPass(50e-6)], context)["histogram"]
        legacy = ThreadTimingAnalyzer(dataset).application_histogram(50e-6)
        np.testing.assert_array_equal(hist.counts, legacy.counts)
        np.testing.assert_array_equal(hist.edges, legacy.edges)

    def test_laggards(self, dataset, shards, context):
        result = run_analyses(shards, ["laggards"], context)["laggards"]
        legacy = ThreadTimingAnalyzer(dataset).laggards()
        assert result.laggard_fraction == legacy.laggard_fraction
        assert result.analysis.keys == legacy.keys
        np.testing.assert_array_equal(result.analysis.gap_s, legacy.gap_s)
        assert result.analysis.classes == legacy.classes

    def test_reclaimable(self, dataset, shards, context):
        summary = run_analyses(shards, ["reclaimable"], context)["reclaimable"]
        assert summary == ThreadTimingAnalyzer(dataset).reclaimable()

    def test_normality(self, dataset, shards, context):
        result = run_analyses(shards, ["normality"], context)["normality"]
        study = ThreadTimingAnalyzer(dataset).normality()
        assert result.application_rejected == study.application_rejects_normality()
        assert result.process_iteration_pass_rates == study.process_iteration_pass_rates()

    def test_earlybird(self, dataset, shards, context):
        result = run_analyses(shards, ["earlybird"], context)["earlybird"]
        legacy = ThreadTimingAnalyzer(dataset).earlybird()
        for key in ("mean_improvement_s", "mean_speedup", "mean_hidden_s"):
            assert result[key] == legacy[key]

    def test_full_report(self, dataset, shards, context):
        results = run_analyses(shards, "all", context)
        streaming = results.report().as_dict()
        legacy = ThreadTimingAnalyzer(dataset).report().as_dict()
        assert streaming == legacy


class TestShardOrderInvariance:
    def test_exact_products_survive_shuffling(self, shards, context):
        rng = np.random.default_rng(7)
        shuffled = list(shards)
        rng.shuffle(shuffled)
        a = run_analyses(shards, "all", context)
        b = run_analyses(shuffled, "all", context)
        assert a.report().as_dict() == b.report().as_dict()
        np.testing.assert_array_equal(
            a["percentiles"].values, b["percentiles"].values
        )
        np.testing.assert_array_equal(a["histogram"].counts, b["histogram"].counts)
        assert a["laggards"].analysis.keys == b["laggards"].analysis.keys

    def test_bounded_mode_fractions_stay_exact(self, dataset, shards):
        context = AnalysisContext.from_dataset(dataset, exact=False)
        results = run_analyses(shards, ["laggards", "reclaimable"], context)
        legacy = ThreadTimingAnalyzer(dataset)
        assert (
            results["laggards"].laggard_fraction
            == legacy.laggards().laggard_fraction
        )
        assert results["laggards"].analysis is None
        assert results["reclaimable"].mean_reclaimable_s == pytest.approx(
            legacy.reclaimable().mean_reclaimable_s, rel=1e-9
        )


class TestPassValidation:
    def test_empty_shard_stream_rejected(self, context):
        with pytest.raises(ValueError):
            run_analyses([], ["percentiles"], context)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            HistogramPass(0.0)
        with pytest.raises(ValueError):
            LaggardsPass(threshold_s=-1.0)

    def test_report_requires_core_passes(self, shards, context):
        results = run_analyses(shards, ["percentiles"], context)
        with pytest.raises(ValueError):
            results.report()


class TestSketchExemplars:
    """Bounded-mode exemplar selection from the candidate pools."""

    def test_candidate_pools_only_in_sketch_mode(self, dataset, shards, context):
        exact = run_analyses(shards, ["laggards"], context)["laggards"]
        assert exact.candidates is None

        sketch_context = AnalysisContext.from_dataset(dataset, exact=False)
        sketch = run_analyses(shards, ["laggards"], sketch_context)["laggards"]
        assert sketch.analysis is None
        assert set(sketch.candidates) == {cls.value for cls in IterationClass}

    def test_sketch_exemplar_is_a_real_member_of_its_class(
        self, dataset, shards, context
    ):
        """The approximate exemplar must carry an exact-classified key.

        Groups are classified whole (each (trial, process, iteration) group
        lives inside one shard), so every pooled candidate's class agrees
        with the exact analysis — only *which* member is picked is
        approximate.
        """
        analysis = run_analyses(shards, ["laggards"], context)["laggards"].analysis
        sketch_context = AnalysisContext.from_dataset(dataset, exact=False)
        sketch = run_analyses(shards, ["laggards"], sketch_context)["laggards"]
        for cls in IterationClass:
            exact_keys = {
                analysis.keys[i]
                for i, c in enumerate(analysis.classes)
                if c is cls
            }
            key = sketch.exemplar(cls)
            if exact_keys:
                assert key in exact_keys
            else:
                assert key is None

    def test_shard_order_does_not_change_pool_membership(self, dataset, shards):
        context = AnalysisContext.from_dataset(dataset, exact=False)
        forward = run_analyses(shards, ["laggards"], context)["laggards"]
        backward = run_analyses(list(reversed(shards)), ["laggards"], context)[
            "laggards"
        ]
        for cls in IterationClass:
            assert sorted(forward.candidates[cls.value].keys) == sorted(
                backward.candidates[cls.value].keys
            )

    def test_tiny_capacity_still_selects(self, dataset, shards):
        context = AnalysisContext.from_dataset(dataset, exact=False)
        pass_ = LaggardsPass(candidate_capacity=4)
        result = run_analyses(shards, [pass_], context)["laggards"]
        assert all(len(pool) <= 4 for pool in result.candidates.values())
        assert result.exemplar(IterationClass.LAGGARD) is not None


def _column_block(shard_list):
    """The shards' columns concatenated into one block, plus their slices."""
    columns = {
        name: np.concatenate([np.asarray(shard.columns[name]) for shard in shard_list])
        for name in shard_list[0].columns
    }
    slices, start = [], 0
    for shard in shard_list:
        slices.append(
            ShardSlice(shard.trial, shard.process, start, start + shard.n_samples)
        )
        start += shard.n_samples
    return columns, slices


def _partial_bytes(partials):
    # one pickle round-trip first normalises object-identity topology
    # without touching a value (see tests/integration/test_columnar_analysis)
    return pickle.dumps(pickle.loads(pickle.dumps(partials)))


class TestBlockGroupingMemo:
    """``ColumnarAnalyzer`` groups each column block once for all passes."""

    @pytest.fixture
    def layout_calls(self, monkeypatch):
        calls = []
        layout = aggregation._campaign_block_groups

        def counting(columns, slices):
            calls.append(id(columns))
            return layout(columns, slices)

        monkeypatch.setattr(aggregation, "_campaign_block_groups", counting)
        return calls

    def test_layout_checked_once_per_call(self, shards, context, layout_calls):
        columns, slices = _column_block(shards)
        passes = resolve_analyses(BUILTIN)
        assert aggregation.campaign_block_groups(columns, slices) is not None
        layout_calls.clear()
        # without the analyzer every grouping pass pays its own check
        for p in passes:
            p.accumulate_columns_split(columns, slices, context)
        assert len(layout_calls) == len(BUILTIN) - 1  # histogram needs none
        layout_calls.clear()
        mapper = ColumnarAnalyzer(passes, context)
        partials = mapper(columns, slices)
        assert len(partials) == len(slices)
        assert layout_calls == [id(columns)]
        mapper(columns, slices)
        assert layout_calls == [id(columns)] * 2

    def test_other_slices_bypass_a_held_block(self, shards, layout_calls):
        columns, slices = _column_block(shards)
        aggregation.hold_block_groups(columns, slices)
        try:
            held = aggregation.campaign_block_groups(columns, slices)
            assert aggregation.campaign_block_groups(columns, slices) is held
            # a partial slice list cannot tile the block: no dense reshape
            assert aggregation.campaign_block_groups(columns, slices[:1]) is None
        finally:
            aggregation.release_block_groups(columns)
        assert layout_calls == [id(columns)] * 2
        assert aggregation._BLOCK_GROUPS == {}

    def test_memo_does_not_change_partials(self, shards, context):
        columns, slices = _column_block(shards)
        passes = resolve_analyses(BUILTIN)
        split = [p.accumulate_columns_split(columns, slices, context) for p in passes]
        direct = [
            {p.name: states[k] for p, states in zip(passes, split)}
            for k in range(len(slices))
        ]
        memoized = ColumnarAnalyzer(passes, context)(columns, slices)
        assert _partial_bytes(memoized) == _partial_bytes(direct)

    def test_memo_released_after_call(self, shards, context):
        columns, slices = _column_block(shards)
        ColumnarAnalyzer(resolve_analyses(BUILTIN), context)(columns, slices)
        assert aggregation._BLOCK_GROUPS == {}

    def test_memo_released_when_a_pass_raises(self, shards, context, layout_calls):
        class Exploding(NormalityPass):
            name = "exploding"

            def accumulate_columns_split(self, columns, slices, context):
                super().accumulate_columns_split(columns, slices, context)
                raise RuntimeError("boom")

        columns, slices = _column_block(shards)
        passes = (*resolve_analyses(["percentiles", "laggards"]), Exploding())
        with pytest.raises(RuntimeError, match="boom"):
            ColumnarAnalyzer(passes, context)(columns, slices)
        assert aggregation._BLOCK_GROUPS == {}
        assert layout_calls == [id(columns)]

    def test_concurrent_blocks_match_serial(self, shards, context):
        blocks = [_column_block(shards[:2]), _column_block(shards[2:])]
        mapper = ColumnarAnalyzer(resolve_analyses(BUILTIN), context)
        serial = [_partial_bytes(mapper(*block)) for block in blocks]
        rounds = 10
        barrier = threading.Barrier(len(blocks))
        results = [[] for _ in blocks]
        errors = []

        def work(index):
            try:
                for _ in range(rounds):
                    barrier.wait()
                    results[index].append(_partial_bytes(mapper(*blocks[index])))
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
        assert aggregation._BLOCK_GROUPS == {}
