"""Property-based tests of the mergeable histogram and the exact products (hypothesis)."""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis import AnalysisContext, analyze_dataset, run_columnar_analyses
from repro.core.aggregation import ShardSlice, canonical_block
from repro.core.timing import TimingDataset
from repro.stats.histogram import fixed_width_histogram
from repro.stats.streaming import StreamingHistogram

#: physical-range sample vectors, long enough to split into several shards
sample_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(8, 400),
    elements=st.floats(1e-6, 1.0, allow_nan=False, allow_infinity=False),
)


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
    st.sampled_from(["process", "dataset"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_exact_products_independent_of_shard_layout(
    n_trials, n_processes, n_iterations, n_threads, granularity, seed
):
    """Any dense campaign, cut into (trial, process) shards or held as one
    dataset, with rows in any order, gives the exact products of the
    canonical (trial, process) fold, byte for byte."""
    rng = np.random.default_rng(seed)
    shape = (n_trials, n_processes, n_iterations, n_threads)
    times = rng.lognormal(-4.0, 0.3, size=shape)
    dataset = TimingDataset.from_compute_times(times, {"application": "prop"})
    context = AnalysisContext.from_dataset(dataset)

    def shard(trial, process, permute):
        part = dataset.select(trial=trial, process=process)
        order = rng.permutation(len(part)) if permute else np.arange(len(part))
        columns = {name: part.column(name)[order] for name in part.columns}
        return canonical_block(columns, [ShardSlice(trial, process, 0, len(part))])

    canonical = [
        shard(int(t), int(p), permute=False)
        for t in dataset.trials
        for p in dataset.processes
    ]
    if granularity == "process":
        layout = [shard(*sh.slices[0].sort_key, permute=True) for sh in canonical]
        layout = [layout[i] for i in rng.permutation(len(layout))]
        products = run_columnar_analyses(layout, "all", context)
    else:
        order = rng.permutation(len(dataset))
        shuffled = TimingDataset(
            {name: dataset.column(name)[order] for name in dataset.columns},
            dataset.metadata,
        )
        products = analyze_dataset(shuffled)
    assert _exact_product_bytes(products) == _exact_product_bytes(
        run_columnar_analyses(canonical, "all", context)
    )
