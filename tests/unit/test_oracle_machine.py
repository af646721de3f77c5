"""Unit tests for the event oracle's machine: the cores ranks are placed
on, each machine's per-core clock population (:class:`ClockSpec`) and the
monotonic clocks built from it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.event import (
    ClockDomain,
    ClockSpec,
    Core,
    MonotonicClock,
    clock_spec,
    place_processes,
)
from repro.cluster.config import MachineConfig, manzano
from repro.scenarios import available_machines, get_machine


class TestPlacement:
    def test_core_key_is_node_socket_core(self):
        assert Core(node_id=1, socket_id=0, core_id=5).global_id == (1, 0, 5)

    @settings(max_examples=80, deadline=None)
    @given(
        n_nodes=st.integers(1, 3),
        sockets=st.integers(1, 2),
        cores_per_socket=st.integers(1, 6),
        n_processes=st.integers(1, 6),
        threads=st.integers(1, 8),
    )
    def test_placements_are_disjoint_runs_inside_one_node(
        self, n_nodes, sockets, cores_per_socket, n_processes, threads
    ):
        machine = MachineConfig(
            n_nodes=n_nodes, sockets_per_node=sockets, cores_per_socket=cores_per_socket
        )
        per_node = machine.cores_per_node
        fits = threads <= per_node and n_processes <= n_nodes * (per_node // threads)
        if not fits:
            with pytest.raises(ValueError, match="cannot place"):
                place_processes(machine, n_processes, threads)
            return
        placements = place_processes(machine, n_processes, threads)
        keys = [core.global_id for cores in placements for core in cores]
        assert len(set(keys)) == len(keys) == n_processes * threads
        for cores in placements:
            assert len({core.node_id for core in cores}) == 1
            # consecutive socket-major cores
            flat = [core.socket_id * cores_per_socket + core.core_id for core in cores]
            assert flat == list(range(flat[0], flat[0] + threads))

    def test_processes_pack_whole_nodes(self):
        placements = place_processes(manzano(n_nodes=2), 2, 48)
        assert [cores[0].node_id for cores in placements] == [0, 1]
        assert all(len(cores) == 48 for cores in placements)

    def test_cores_are_socket_major(self):
        machine = MachineConfig(n_nodes=1, sockets_per_node=2, cores_per_socket=3)
        (cores,) = place_processes(machine, 1, 6)
        assert [core.global_id for core in cores] == [
            (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)
        ]

    def test_several_processes_share_a_node(self):
        placements = place_processes(manzano(n_nodes=1), 4, 12)
        assert [cores[0].global_id for cores in placements] == [
            (0, 0, 0), (0, 0, 12), (0, 1, 0), (0, 1, 12)
        ]

    def test_a_process_never_straddles_nodes(self):
        machine = MachineConfig(n_nodes=2, sockets_per_node=1, cores_per_socket=8)
        placements = place_processes(machine, 2, 5)
        assert [cores[0].global_id for cores in placements] == [(0, 0, 0), (1, 0, 0)]

    def test_overflow_rejected(self):
        machine = MachineConfig(n_nodes=1, sockets_per_node=1, cores_per_socket=8)
        with pytest.raises(ValueError, match="cannot place"):
            place_processes(machine, 2, 8)
        with pytest.raises(ValueError, match="cannot place"):
            place_processes(machine, 1, 9)


class TestMachineClocks:
    def test_only_fatnode_and_cloudvm_differ_from_the_default(self):
        for name in available_machines():
            expected = {
                "fatnode": ClockSpec(tsc_reliable=True, read_jitter_ns=10.0),
                "cloudvm": ClockSpec(max_offset_s=1.0e7, drift_ppm=40.0, read_jitter_ns=60.0),
            }.get(name, ClockSpec())
            assert clock_spec(get_machine(name)) == expected, name

    def test_the_paper_platform_has_no_reliable_tsc(self):
        assert not clock_spec(manzano()).tsc_reliable


class TestMonotonicClock:
    def test_elapsed_time_cancels_offset(self):
        clock = MonotonicClock(offset_s=123456.0)
        start = clock.read_ns(10.0)
        end = clock.read_ns(10.5)
        assert (end - start) * 1e-9 == pytest.approx(0.5, abs=1e-9)

    def test_reads_never_go_backwards_despite_jitter(self):
        clock = MonotonicClock(read_jitter_ns=500.0, rng=np.random.default_rng(0))
        times = np.linspace(0.0, 1e-3, 500)
        readings = [clock.read_ns(t) for t in times]
        assert all(b >= a for a, b in zip(readings, readings[1:]))

    def test_drift_scales_elapsed_time(self):
        clock = MonotonicClock(drift=1e-3)  # 1000 ppm fast
        start = clock.read_ns(0.0)
        end = clock.read_ns(1.0)
        assert (end - start) * 1e-9 == pytest.approx(1.001, rel=1e-6)

    def test_wide_offsets_keep_elapsed_times_to_a_few_nanoseconds(self):
        # cloudvm's epochs reach 1e7 s = 1e16 ns, where float64 resolves
        # 2 ns: readings are int64, and elapsed times stay that close
        clock = MonotonicClock(offset_s=1.0e7)
        start = clock.read_ns(2.0)
        assert start > 2**53
        assert clock.read_ns(2.0 + 1.5e-3) - start == pytest.approx(1_500_000, abs=4)


class TestClockSpec:
    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            ClockSpec(max_offset_s=-1.0)


class TestClockDomain:
    def _cores(self, n):
        return [Core(0, 0, i) for i in range(n)]

    def test_unsynchronised_cores_have_different_offsets(self):
        domain = ClockDomain(ClockSpec(tsc_reliable=False), np.random.default_rng(1))
        clocks = [domain.clock_for(core) for core in self._cores(4)]
        offsets = {round(c.offset_s, 6) for c in clocks}
        assert len(offsets) == 4
        assert not domain.cross_core_comparable()

    def test_raw_timestamps_not_comparable_across_cores(self):
        """The §3.1 motivation: raw CLOCK_MONOTONIC values from different
        cores cannot be ordered, but derived elapsed times can be compared."""
        domain = ClockDomain(ClockSpec(tsc_reliable=False), np.random.default_rng(2))
        clock_a, clock_b = (domain.clock_for(core) for core in self._cores(2))
        # same physical instant, wildly different readings
        a = clock_a.read_ns(5.0)
        b = clock_b.read_ns(5.0)
        assert abs(a - b) > 1_000_000  # offsets are huge compared to 1 ms
        # elapsed times agree to within drift/jitter
        elapsed_a = clock_a.read_ns(5.010) - a
        elapsed_b = clock_b.read_ns(5.010) - b
        assert elapsed_a * 1e-9 == pytest.approx(0.010, rel=1e-3)
        assert elapsed_b * 1e-9 == pytest.approx(0.010, rel=1e-3)

    def test_tsc_reliable_shares_offset_and_zero_drift(self):
        domain = ClockDomain(ClockSpec(tsc_reliable=True), np.random.default_rng(3))
        clocks = [domain.clock_for(core) for core in self._cores(3)]
        assert len({c.offset_s for c in clocks}) == 1
        assert all(c.drift == 0.0 for c in clocks)
        assert domain.cross_core_comparable()

    def test_clock_is_cached_per_core(self):
        domain = ClockDomain(ClockSpec(), np.random.default_rng(4))
        core = Core(0, 0, 0)
        assert domain.clock_for(core) is domain.clock_for(core)
        assert len(domain) == 1
