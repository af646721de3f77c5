"""Unit tests for the region instrumenters."""

import numpy as np
import pytest

from repro.core.instrument import PythonThreadRegion, RegionInstrumenter


class TestRegionInstrumenter:
    def test_record_thread_and_dataset(self):
        instr = RegionInstrumenter(region="matvec", application="minife")
        instr.record_thread(
            trial=0, process=1, iteration=2, thread=3, start_ns=100, end_ns=2_000_100
        )
        ds = instr.dataset()
        assert len(ds) == 1
        assert ds.metadata["region"] == "matvec"
        assert ds.compute_times_s[0] == pytest.approx(2.0e-3)

    def test_backwards_timestamps_rejected(self):
        instr = RegionInstrumenter()
        with pytest.raises(ValueError):
            instr.record_thread(
                trial=0, process=0, iteration=0, thread=0, start_ns=10, end_ns=5
            )

    def test_record_compute_times_assigns_thread_ids(self):
        instr = RegionInstrumenter(application="x")
        instr.record_compute_times(
            trial=0, process=0, iteration=0, compute_times_s=[1e-3, 2e-3, 3e-3]
        )
        ds = instr.dataset()
        assert ds.n_threads == 3
        np.testing.assert_allclose(
            np.sort(ds.compute_times_s), [1e-3, 2e-3, 3e-3]
        )

    def test_empty_instrumenter_cannot_build_dataset(self):
        with pytest.raises(ValueError):
            RegionInstrumenter().dataset()

    def test_reset_clears_records(self):
        instr = RegionInstrumenter()
        instr.record_compute_times(
            trial=0, process=0, iteration=0, compute_times_s=[1e-3]
        )
        instr.reset()
        assert instr.n_records == 0


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
        assert ds.metadata["backend"] == "python-threads"

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
