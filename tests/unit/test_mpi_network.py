"""Unit tests for the network / NIC model."""

import pytest

from repro.mpi.network import NetworkModel, NICModel, omni_path


class TestNetworkModel:
    def test_message_time_monotone_in_size(self):
        net = omni_path()
        small = net.message_time(1024)
        large = net.message_time(1024 * 1024)
        assert large > small

    def test_message_time_increases_with_hops(self):
        net = omni_path()
        assert net.message_time(4096, hops=4) > net.message_time(4096, hops=1)

    def test_rendezvous_threshold(self):
        net = NetworkModel(eager_threshold_bytes=1000, rendezvous_overhead_s=1e-5)
        assert net.protocol_overhead(1000) == 0.0
        assert net.protocol_overhead(1001) == pytest.approx(1e-5)

    def test_serialization_matches_bandwidth(self):
        net = NetworkModel(bandwidth_bytes_per_s=1e9)
        assert net.serialization_time(1_000_000) == pytest.approx(1e-3)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1.0)


class TestNICModel:
    def test_fifo_serialisation_of_simultaneous_submissions(self):
        net = NetworkModel(
            latency_s=0.0, per_hop_latency_s=0.0, o_send_s=0.0, o_recv_s=0.0,
            bandwidth_bytes_per_s=1e6, eager_threshold_bytes=1 << 30,
        )
        nic = NICModel(net, hops=0)
        first = nic.submit(1000, at_time=0.0)   # 1 ms on the wire
        second = nic.submit(1000, at_time=0.0)  # must queue behind the first
        assert first.injection_done == pytest.approx(1e-3)
        assert second.start_time == pytest.approx(1e-3)
        assert second.injection_done == pytest.approx(2e-3)

    def test_idle_gap_is_not_billed(self):
        net = NetworkModel(latency_s=0.0, o_send_s=0.0, o_recv_s=0.0,
                           bandwidth_bytes_per_s=1e6, eager_threshold_bytes=1 << 30)
        nic = NICModel(net)
        nic.submit(1000, at_time=0.0)
        late = nic.submit(1000, at_time=10.0)  # long after the NIC went idle
        assert late.start_time == pytest.approx(10.0)

    def test_submit_many_orders_by_request_time(self):
        nic = NICModel(omni_path())
        records = nic.submit_many([100, 100, 100], [3e-3, 1e-3, 2e-3])
        # result order matches input order, but service order follows times
        assert records[1].start_time < records[2].start_time < records[0].start_time

    def test_busy_until_is_the_last_injection_end(self):
        nic = NICModel(omni_path())
        assert nic.busy_until == 0.0
        record = nic.submit(1 << 20, at_time=0.0)
        assert nic.busy_until == record.injection_done > 0.0
