"""Property-based tests of the mergeable streaming accumulators (hypothesis)."""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis import AnalysisContext, run_analyses
from repro.core.timing import TimingDataset, TimingShard
from repro.stats.histogram import fixed_width_histogram
from repro.stats.moments import kurtosis, skewness
from repro.stats.sketch import PercentileSketch
from repro.stats.streaming import StreamingHistogram, StreamingMoments

#: physical-range sample vectors, long enough to split into several shards
sample_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(8, 400),
    elements=st.floats(1e-6, 1.0, allow_nan=False, allow_infinity=False),
)


@given(sample_vectors, st.integers(2, 6))
@settings(max_examples=80, deadline=None)
def test_streaming_moments_merge_matches_pooled_numpy_moments(samples, n_parts):
    """The satellite property: per-shard ``StreamingMoments`` merged in any
    grouping agree with the pooled numpy moments."""
    parts = np.array_split(samples, n_parts)
    merged = StreamingMoments()
    for part in parts:
        merged = merged.merge(StreamingMoments.from_samples(part))
    assert merged.count == len(samples)
    np.testing.assert_allclose(merged.mean, samples.mean(), rtol=1e-9)
    np.testing.assert_allclose(merged.variance(), samples.var(), rtol=1e-7, atol=1e-12)
    if samples.var() > 1e-12:  # moments of near-constant data are degenerate
        np.testing.assert_allclose(
            merged.skewness, float(skewness(samples)), rtol=1e-5, atol=1e-7
        )
        np.testing.assert_allclose(
            merged.kurtosis, float(kurtosis(samples)), rtol=1e-5, atol=1e-7
        )
    assert merged.minimum == samples.min()
    assert merged.maximum == samples.max()


@given(sample_vectors, st.integers(2, 5), st.floats(1e-4, 1e-1))
@settings(max_examples=60, deadline=None)
def test_streaming_histogram_is_exact_under_any_sharding(samples, n_parts, width):
    reference = fixed_width_histogram(samples, width)
    acc = StreamingHistogram(width)
    for part in np.array_split(samples, n_parts):
        acc = acc.merge(StreamingHistogram(width).update(part))
    merged = acc.finalize()
    np.testing.assert_array_equal(merged.counts, reference.counts)
    np.testing.assert_array_equal(merged.edges, reference.edges)
    assert merged.total == len(samples)


@given(sample_vectors, st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_uncompacted_sketch_quantiles_equal_numpy_percentile(samples, n_parts):
    """Below capacity nothing compacts, so merged partial sketches answer
    exactly ``np.percentile`` of the pooled samples."""
    sketch = PercentileSketch(512)
    for part in np.array_split(samples, n_parts):
        sketch = sketch.merge(PercentileSketch(512).update(part))
    levels = [5.0, 50.0, 95.0]
    np.testing.assert_array_equal(
        sketch.quantile(levels), np.percentile(samples, levels)
    )


#: a stream of row-batched steps: ("update" | "merge", columns in the batch)
sketch_steps = st.lists(
    st.tuples(st.sampled_from(["update", "merge"]), st.integers(0, 300)),
    min_size=1,
    max_size=12,
)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([8, 64, 512]),
    st.integers(1, 5),
    sketch_steps,
)
@settings(max_examples=60, deadline=None)
def test_batched_sketch_rows_replay_one_dimensional_sketches(
    seed, capacity, n_rows, steps
):
    """Row ``r`` of a row-batched sketch is bit-identical to a 1-D sketch
    fed row ``r`` alone, through any sequence of updates and merges —
    compaction decisions depend only on the shared per-row counts."""
    rng = np.random.default_rng(seed)
    batched = PercentileSketch(capacity)
    singles = [PercentileSketch(capacity) for _ in range(n_rows)]
    for step, width in steps:
        block = rng.lognormal(-4.0, 0.3, size=(n_rows, width))
        if step == "update":
            batched.update(block)
            for row, single in zip(block, singles):
                single.update(row)
        else:
            batched = batched.merge(PercentileSketch(capacity).update(block))
            singles = [
                single.merge(PercentileSketch(capacity).update(row))
                for row, single in zip(block, singles)
            ]
    assert all(single.n == batched.n for single in singles)
    if batched.n == 0:
        return
    levels = [0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 100.0]
    rows_q = batched.quantile(levels)
    assert rows_q.shape == (len(levels), n_rows)
    for r, single in enumerate(singles):
        np.testing.assert_array_equal(rows_q[:, r], single.quantile(levels))
        np.testing.assert_array_equal(batched.support[r], single.support)
        assert batched.minimum[r] == single.minimum
        assert batched.maximum[r] == single.maximum


@given(sample_vectors)
@settings(max_examples=60, deadline=None)
def test_compressed_sketch_brackets_the_true_range(samples):
    sketch = PercentileSketch(64).update(samples)
    assert len(sketch.support) <= 64
    assert sketch.minimum == samples.min()
    assert sketch.maximum == samples.max()
    median = float(sketch.quantile(50.0))
    assert samples.min() <= median <= samples.max()


def _strided_reference_support(chunks, capacity):
    """The pre-KLL strided compressor: merge-sort each chunk in, then keep
    ``capacity`` evenly spaced order statistics of the sorted support."""
    support = np.empty(0, dtype=np.float64)
    for chunk in chunks:
        support = np.sort(np.concatenate([support, chunk]))
        if len(support) > capacity:
            idx = np.round(
                np.linspace(0, len(support) - 1, capacity)
            ).astype(np.int64)
            support = support[idx]
    return support


def _rank_errors(estimates, sorted_samples, quantiles):
    ranks = np.searchsorted(sorted_samples, estimates) / len(sorted_samples)
    return np.abs(ranks - np.asarray(quantiles) / 100.0)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([128, 256, 1024]),
    st.integers(7, 60),
)
@settings(max_examples=25, deadline=None)
def test_kll_rank_error_no_worse_than_strided_compression(seed, capacity, n_chunks):
    """The KLL compactor's satellite contract: bounded state and mean rank
    error at or below the strided recompression it replaced (with a
    ``2 / capacity`` floor so ties on easy streams cannot flake), plus an
    absolute worst-case ceiling from the compaction schedule."""
    rng = np.random.default_rng(seed)
    samples = rng.lognormal(mean=0.0, sigma=0.7, size=20_000)
    chunks = np.array_split(samples, n_chunks)

    sketch = PercentileSketch(capacity)
    for chunk in chunks:
        sketch.update(chunk)
    assert sketch.n == len(samples)
    assert len(sketch.support) <= capacity

    quantiles = np.linspace(1.0, 99.0, 40)
    sorted_samples = np.sort(samples)
    strided_errs = _rank_errors(
        np.percentile(_strided_reference_support(chunks, capacity), quantiles),
        sorted_samples,
        quantiles,
    )
    bound = max(float(strided_errs.mean()), 2.0 / capacity)
    for probe in (
        sketch,
        # mergeability: two half-stream sketches merged obey the same bound
        _merged_halves(chunks, capacity),
    ):
        errs = _rank_errors(
            np.asarray(probe.quantile(quantiles)), sorted_samples, quantiles
        )
        assert float(errs.mean()) <= bound
        assert float(errs.max()) <= 8.0 / capacity
        assert probe.n == len(samples)
        assert len(probe.support) <= capacity
        assert probe.minimum == samples.min()
        assert probe.maximum == samples.max()


def _merged_halves(chunks, capacity):
    half = len(chunks) // 2 or 1
    left = PercentileSketch(capacity)
    right = PercentileSketch(capacity)
    for chunk in chunks[:half]:
        left.update(chunk)
    for chunk in chunks[half:]:
        right.update(chunk)
    return left.merge(right)


def _exact_product_bytes(results):
    # one pickle round-trip normalises object-identity topology without
    # touching a value (see tests/integration/test_columnar_analysis)
    return {
        name: pickle.dumps(pickle.loads(pickle.dumps(results[name])))
        for name in results
    }


@given(
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(8, 12),
    st.sampled_from(["process", "trial"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_exact_products_independent_of_shard_layout(
    n_trials, n_processes, n_iterations, n_threads, granularity, seed
):
    """Any dense campaign, cut into (trial, process) or whole-trial shards
    with rows in any order, gives the exact products of the canonical
    (trial, process) fold, byte for byte."""
    rng = np.random.default_rng(seed)
    shape = (n_trials, n_processes, n_iterations, n_threads)
    times = rng.lognormal(-4.0, 0.3, size=shape)
    dataset = TimingDataset.from_compute_times(times, {"application": "prop"})
    context = AnalysisContext.from_dataset(dataset, exact=True)

    def shard(trial, process, permute):
        part = dataset.select(trial=trial, process=process)
        order = rng.permutation(len(part)) if permute else np.arange(len(part))
        columns = {name: part.column(name)[order] for name in part.columns}
        return TimingShard(trial=trial, process=process, columns=columns)

    canonical = [
        shard(int(t), int(p), permute=False)
        for t in dataset.trials
        for p in dataset.processes
    ]
    if granularity == "process":
        layout = [shard(sh.trial, sh.process, permute=True) for sh in canonical]
    else:
        layout = [shard(int(t), None, permute=True) for t in dataset.trials]
    layout = [layout[i] for i in rng.permutation(len(layout))]
    assert _exact_product_bytes(
        run_analyses(layout, "all", context)
    ) == _exact_product_bytes(run_analyses(canonical, "all", context))
