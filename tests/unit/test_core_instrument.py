"""Unit tests for the real-thread region instrumenter."""

import numpy as np
import pytest

from repro.core.instrument import PythonThreadRegion


class TestPythonThreadRegion:
    def test_real_thread_measurement_produces_dataset(self):
        def spin(_item):
            total = 0
            for i in range(200):
                total += i * i
            return total

        region = PythonThreadRegion(n_threads=3, work_fn=spin, n_items=30)
        ds = region.run(n_iterations=4, application="pool-demo")
        assert ds.n_threads == 3
        assert ds.n_iterations == 4
        assert np.all(ds.compute_times_s >= 0.0)
        assert ds.metadata == {
            "application": "pool-demo",
            "region": "loop",
            "backend": "python-threads",
            "caveat": "GIL-bound measurement; relative shapes only",
        }
        # only derived compute times: the raw readings never leave the run
        assert "start_ns" not in ds.columns

    def test_samples_are_indexed_by_iteration_and_thread(self):
        region = PythonThreadRegion(n_threads=3, work_fn=lambda i: None, n_items=6)
        ds = region.run(n_iterations=2)
        assert len(ds) == 6
        np.testing.assert_array_equal(ds.column("trial"), 0)
        np.testing.assert_array_equal(ds.column("process"), 0)
        np.testing.assert_array_equal(ds.column("iteration"), [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(ds.column("thread"), [0, 1, 2, 0, 1, 2])

    def test_block_assignment_covers_all_items(self):
        region = PythonThreadRegion(n_threads=4, work_fn=lambda i: None, n_items=10)
        blocks = region._assignment()
        covered = [item for block in blocks for item in block]
        assert sorted(covered) == list(range(10))
        assert [len(b) for b in blocks] == [3, 3, 2, 2]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PythonThreadRegion(0, lambda i: None, 1)
        with pytest.raises(ValueError):
            PythonThreadRegion(1, lambda i: None, -1)
        with pytest.raises(ValueError):
            PythonThreadRegion(1, lambda i: None, 1).run(0)
