"""Unit tests for TimingDataset."""

import numpy as np
import pytest

from repro.core.aggregation import campaign_block
from repro.core.timing import TimingDataset


def _dense_dataset(trials=2, processes=2, iterations=3, threads=4, seed=0):
    rng = np.random.default_rng(seed)
    times = rng.uniform(1e-3, 2e-3, size=(trials, processes, iterations, threads))
    return TimingDataset.from_compute_times(times, {"application": "demo"}), times


class TestTimingDatasetConstruction:
    def test_from_compute_times_shape_checks(self):
        with pytest.raises(ValueError):
            TimingDataset.from_compute_times(np.zeros((2, 2, 2)))

    def test_missing_columns_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            TimingDataset({"trial": np.zeros(3)})

    def test_negative_compute_times_rejected(self):
        ds, times = _dense_dataset()
        bad = {
            "trial": ds.column("trial"),
            "process": ds.column("process"),
            "iteration": ds.column("iteration"),
            "thread": ds.column("thread"),
            "compute_time_s": ds.compute_times_s - 1.0,
        }
        with pytest.raises(ValueError):
            TimingDataset(bad)

    def test_columns_of_the_right_dtype_are_not_copied(self):
        n = 6
        columns = {
            "trial": np.zeros(n, dtype=np.int32),
            "process": np.zeros(n, dtype=np.int32),
            "iteration": np.repeat(np.arange(2, dtype=np.int32), 3),
            "thread": np.tile(np.arange(3, dtype=np.int32), 2),
            "end_ns": np.arange(n, dtype=np.int64),
            "compute_time_s": np.linspace(1e-3, 2e-3, n),
        }
        ds = TimingDataset(columns)
        for name, values in columns.items():
            assert np.shares_memory(ds.column(name), values), name
        # other dtypes are converted, which copies
        widened = TimingDataset(dict(columns, trial=columns["trial"].astype(np.int64)))
        assert widened.column("trial").dtype == np.int32
        assert not np.shares_memory(widened.column("trial"), columns["trial"])

    def test_merge_orders_slices_and_rejects_mismatched_blocks(self):
        ds, times = _dense_dataset()
        cube = times.reshape(-1, *times.shape[2:])
        keys = [(t, p) for t in range(2) for p in range(2)]
        late, early = campaign_block(keys[2:], cube[2:]), campaign_block(keys[:2], cube[:2])
        merged = TimingDataset.merge([late, early], {"application": "demo"})
        for name in ds.columns:
            np.testing.assert_array_equal(merged.column(name), ds.column(name))
        with pytest.raises(ValueError, match="zero blocks"):
            TimingDataset.merge([])
        fewer = campaign_block(keys[2:], cube[2:, :2])
        with pytest.raises(ValueError, match="same iteration and thread ids"):
            TimingDataset.merge([early, fewer])


class TestTimingDatasetAccessors:
    def test_dimension_properties(self):
        ds, _ = _dense_dataset(trials=3, processes=2, iterations=4, threads=5)
        assert ds.n_trials == 3
        assert ds.n_processes == 2
        assert ds.n_iterations == 4
        assert ds.n_threads == 5
        assert ds.n_samples == 3 * 2 * 4 * 5

    def test_to_dense_inverts_from_compute_times(self):
        ds, times = _dense_dataset()
        np.testing.assert_allclose(ds.to_dense(), times)

    def test_select_filters_rows(self):
        ds, times = _dense_dataset()
        subset = ds.select(trial=1, process=0)
        assert subset.n_trials == 1
        assert subset.n_processes == 1
        np.testing.assert_allclose(
            np.sort(subset.compute_times_s), np.sort(times[1, 0].ravel())
        )

    def test_select_no_match_raises(self):
        ds, _ = _dense_dataset()
        with pytest.raises(KeyError):
            ds.select(trial=99)

    def test_select_iterations_slice(self):
        ds, _ = _dense_dataset(iterations=6)
        subset = ds.select_iterations(slice(0, 2))
        assert subset.n_iterations == 2
        assert subset.is_dense()

    def test_with_metadata_does_not_mutate_original(self):
        ds, _ = _dense_dataset()
        updated = ds.with_metadata(application="other")
        assert updated.application == "other"
        assert ds.application == "demo"

    def test_summary_fields(self):
        ds, _ = _dense_dataset()
        summary = ds.summary()
        assert summary["samples"] == len(ds)
        assert summary["min_ms"] <= summary["median_ms"] <= summary["max_ms"]

    def test_non_dense_to_dense_rejected(self):
        ds, _ = _dense_dataset()
        subset_cols = {name: ds.column(name)[:-1] for name in ds.columns}
        sparse = TimingDataset(subset_cols, ds.metadata)
        assert not sparse.is_dense()
        with pytest.raises(ValueError):
            sparse.to_dense()
