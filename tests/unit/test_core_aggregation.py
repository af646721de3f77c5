"""Unit tests for the three aggregation levels."""

import numpy as np
import pytest

from repro.core.aggregation import AggregationLevel, aggregate, per_iteration_samples
from repro.core.timing import TimingDataset


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(5)
    times = rng.uniform(1e-3, 2e-3, size=(2, 3, 4, 6))  # trials, procs, iters, threads
    return TimingDataset.from_compute_times(times, {"application": "demo"})


class TestAggregationLevels:
    def test_application_level_single_group(self, dataset):
        grouped = aggregate(dataset, AggregationLevel.APPLICATION)
        assert grouped.n_groups == 1
        assert grouped.group_size == len(dataset)
        assert grouped.keys == [()]

    def test_application_iteration_level_grouping(self, dataset):
        grouped = aggregate(dataset, AggregationLevel.APPLICATION_ITERATION)
        assert grouped.n_groups == 4
        assert grouped.group_size == 2 * 3 * 6
        # every group's samples are exactly the dataset rows of that iteration
        for key in grouped.keys:
            expected = np.sort(dataset.select(iteration=key[0]).compute_times_s)
            np.testing.assert_allclose(np.sort(grouped.group(key)), expected)

    def test_process_iteration_level_grouping(self, dataset):
        grouped = aggregate(dataset, AggregationLevel.PROCESS_ITERATION)
        assert grouped.n_groups == 2 * 3 * 4
        assert grouped.group_size == 6
        key = (1, 2, 3)
        expected = np.sort(
            dataset.select(trial=1, process=2, iteration=3).compute_times_s
        )
        np.testing.assert_allclose(np.sort(grouped.group(key)), expected)

    def test_level_parsing_from_string(self, dataset):
        grouped = aggregate(dataset, "process_iteration")
        assert grouped.level is AggregationLevel.PROCESS_ITERATION
        with pytest.raises(ValueError):
            AggregationLevel.from_name("bogus")

    def test_unknown_group_key_raises(self, dataset):
        grouped = aggregate(dataset, AggregationLevel.PROCESS_ITERATION)
        with pytest.raises(KeyError):
            grouped.group((99, 99, 99))

    def test_per_iteration_samples_matrix(self, dataset):
        matrix = per_iteration_samples(dataset)
        assert matrix.shape == (4, 2 * 3 * 6)

    def test_sparse_dataset_rejected(self, dataset):
        columns = {name: dataset.column(name)[:-1] for name in dataset.columns}
        sparse = TimingDataset(columns, dataset.metadata)
        with pytest.raises(ValueError):
            aggregate(sparse, AggregationLevel.APPLICATION)

    def test_group_count_times_size_equals_samples(self, dataset):
        for level in AggregationLevel:
            grouped = aggregate(dataset, level)
            assert grouped.n_groups * grouped.group_size == len(dataset)
