"""Unit tests for the closed-form partitioned transfer (the event-driven
request pair it is compared against is tested in test_oracle_engine.py)."""

import numpy as np
import pytest

from repro.mpi.network import NetworkModel, omni_path
from repro.mpi.partitioned import partitioned_completion_times

#: Simple network: no latency/overheads, 1 MB/s -> 1 byte = 1 µs.
FLAT = NetworkModel(
    latency_s=0.0,
    per_hop_latency_s=0.0,
    o_send_s=0.0,
    o_recv_s=0.0,
    bandwidth_bytes_per_s=1e6,
    eager_threshold_bytes=1 << 30,
)


class TestClosedForm:
    def test_simultaneous_partitions_serialise_like_one_message(self):
        transfer = partitioned_completion_times(
            [0.0, 0.0, 0.0, 0.0], 1000, FLAT, hops=0
        )
        assert transfer.completion_time == pytest.approx(4e-3)
        assert transfer.total_bytes == 4000

    def test_spread_ready_times_overlap_compute_and_injection(self):
        # partitions become ready 2 ms apart but each takes only 1 ms to
        # inject: the NIC is never the bottleneck, completion tracks the last
        # ready time plus one injection
        transfer = partitioned_completion_times(
            [0.0, 2e-3, 4e-3, 6e-3], 1000, FLAT, hops=0
        )
        assert transfer.completion_time == pytest.approx(7e-3)
        assert transfer.delivery_times().min() == pytest.approx(1e-3)

    def test_per_partition_sizes_respected(self):
        transfer = partitioned_completion_times(
            [0.0, 0.0], [1000, 3000], FLAT, hops=0
        )
        assert transfer.completion_time == pytest.approx(4e-3)
        sizes = [p.nbytes for p in transfer.partitions]
        assert sizes == [1000, 3000]

    def test_ready_time_ordering_preserved_in_records(self):
        ready = [5e-3, 1e-3, 3e-3]
        transfer = partitioned_completion_times(ready, 10, omni_path())
        np.testing.assert_allclose(transfer.ready_times(), ready)

    def test_validation(self):
        with pytest.raises(ValueError):
            partitioned_completion_times([], 10, FLAT)
        with pytest.raises(ValueError):
            partitioned_completion_times([0.0], [1, 2], FLAT)
        with pytest.raises(ValueError):
            partitioned_completion_times([-1.0], 10, FLAT)

