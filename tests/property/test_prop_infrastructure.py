"""Property-based tests of clocks, noise, datasets and persistence."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles.event import Core, MonotonicClock, WindowedNoiseModel
from repro.cluster.noise import NoiseSpec, OSNoiseModel
from repro.core.aggregation import AggregationLevel, aggregate
from repro.core.timing import TimingDataset
from repro.io.dataset_io import load_dataset, save_dataset


@given(
    st.floats(0.0, 1e6),
    st.floats(0.0, 1e-4),
    st.floats(0.0, 100.0),
    st.lists(st.floats(0.0, 10.0), min_size=2, max_size=50),
)
@settings(max_examples=80, deadline=None)
def test_clock_monotonic_for_any_read_pattern(offset, drift, jitter_ns, times):
    clock = MonotonicClock(offset, drift, jitter_ns, rng=np.random.default_rng(0))
    readings = [clock.read_ns(t) for t in sorted(times)]
    assert all(b >= a for a, b in zip(readings, readings[1:]))


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.integers(1, 64),
        elements=st.floats(0.0, 0.1, allow_nan=False),
    ),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_noise_delays_nonnegative_for_any_workload(work, seed):
    model = OSNoiseModel(NoiseSpec(), np.random.default_rng(seed))
    batch = model.batch_delays(work)
    assert np.all(batch >= 0.0)
    timeline = WindowedNoiseModel(NoiseSpec(), np.random.default_rng(seed))
    assert timeline.delay_over(Core(0, 0, 0), 0.0, float(work[0])) >= 0.0


@st.composite
def dense_shapes(draw):
    return (
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 5)),
        draw(st.integers(1, 16)),
    )


@given(dense_shapes(), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_aggregation_levels_partition_the_dataset(shape, seed):
    rng = np.random.default_rng(seed)
    times = rng.uniform(1e-4, 1e-1, size=shape)
    ds = TimingDataset.from_compute_times(times, {"application": "prop"})
    total = ds.compute_times_s.sum()
    for level in AggregationLevel:
        grouped = aggregate(ds, level)
        # the groups are a partition: same number of samples, same total time
        assert grouped.values.size == ds.n_samples
        np.testing.assert_allclose(grouped.values.sum(), total, rtol=1e-9)


@given(shape=dense_shapes(), seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_dataset_roundtrip_through_disk(tmp_path_factory, shape, seed):
    rng = np.random.default_rng(seed)
    times = rng.uniform(1e-4, 1e-1, size=shape)
    ds = TimingDataset.from_compute_times(
        times, {"application": "prop", "seed": seed}
    )
    target = tmp_path_factory.mktemp("roundtrip") / f"ds_{seed}.npz"
    loaded = load_dataset(save_dataset(ds, target))
    np.testing.assert_array_equal(loaded.compute_times_s, ds.compute_times_s)
    assert loaded.metadata["seed"] == seed
    assert loaded.is_dense()
