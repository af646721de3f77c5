"""Unit tests for the per-core clock population (:class:`ClockSpec`) and
the discrete-event reference's monotonic clocks built from it."""

import numpy as np
import pytest

from oracles.event import ClockDomain, MonotonicClock
from repro.cluster.clock import ClockSpec
from repro.cluster.topology import Core


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
