"""Unit tests for partitioned communication (closed-form and event-driven)."""

import numpy as np
import pytest

from repro.mpi.network import NetworkModel, omni_path
from repro.mpi.partitioned import (
    PartitionedRecvRequest,
    PartitionedSendRequest,
    partitioned_completion_times,
)
from repro.sim.engine import SimulationEngine
from repro.sim.events import Delay, WaitEvent

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


class TestEventDriven:
    def _pair(self, engine, n_partitions=4, partition_bytes=1000):
        recv = PartitionedRecvRequest(engine, n_partitions)
        send = PartitionedSendRequest(
            engine, FLAT, n_partitions, partition_bytes, hops=0, receiver=recv
        )
        return send, recv

    def test_pready_flow_delivers_all_partitions(self):
        engine = SimulationEngine()
        send, recv = self._pair(engine)
        send.start()

        def thread(partition, ready_time):
            yield Delay(ready_time)
            send.pready(partition)

        procs = [engine.spawn(thread(i, i * 1e-3)) for i in range(4)]
        engine.run_until_complete(procs)
        engine.run()
        assert recv.all_arrived.triggered
        assert all(recv.parrived(i) for i in range(4))
        assert send.completion_time() == pytest.approx(recv.all_arrived.trigger_time)

    def test_event_driven_matches_closed_form(self):
        ready = [0.0, 0.5e-3, 2.5e-3, 3.0e-3]
        engine = SimulationEngine()
        send, recv = self._pair(engine)
        send.start()

        def thread(partition, ready_time):
            yield Delay(ready_time)
            send.pready(partition)

        engine.run_until_complete(
            [engine.spawn(thread(i, t)) for i, t in enumerate(ready)]
        )
        engine.run()
        closed = partitioned_completion_times(
            ready, 1000, FLAT, hops=0
        )
        assert send.completion_time() == pytest.approx(closed.completion_time)

    def test_receiver_can_wait_on_single_partition(self):
        engine = SimulationEngine()
        send, recv = self._pair(engine, n_partitions=2)
        send.start()
        seen = {}

        def producer():
            yield Delay(1e-3)
            send.pready(1)
            yield Delay(1e-3)
            send.pready(0)

        def consumer():
            arrival = yield WaitEvent(recv.arrival_event(1))
            seen["partition1"] = arrival

        engine.run_until_complete(
            [engine.spawn(producer()), engine.spawn(consumer())]
        )
        assert seen["partition1"] == pytest.approx(2e-3)

    def test_double_pready_rejected(self):
        engine = SimulationEngine()
        send, _ = self._pair(engine)
        send.start()
        send.pready(0)
        with pytest.raises(RuntimeError):
            send.pready(0)

    def test_pready_before_start_rejected(self):
        engine = SimulationEngine()
        send, _ = self._pair(engine)
        with pytest.raises(RuntimeError):
            send.pready(0)
