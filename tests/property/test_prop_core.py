"""Property-based tests of the core analysis metrics and the early-bird model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.earlybird import EarlyBirdModel
from repro.core.reclaimable import idle_ratio, reclaimable_time
from repro.core.strategies import (
    BinnedStrategy,
    BulkStrategy,
    FineGrainedStrategy,
    TimeoutStrategy,
)
from repro.mpi.network import NetworkModel
from repro.mpi.partitioned import partitioned_completion_times

arrivals_strategy = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(2, 64),
    elements=st.floats(1e-4, 0.2, allow_nan=False),
)

FLAT = NetworkModel(
    latency_s=1e-6,
    per_hop_latency_s=0.0,
    o_send_s=1e-7,
    o_recv_s=1e-7,
    bandwidth_bytes_per_s=1e9,
    eager_threshold_bytes=1 << 40,
)


@given(arrivals_strategy)
@settings(max_examples=100, deadline=None)
def test_reclaimable_time_identities(arrivals):
    reclaim = reclaimable_time(arrivals)[0]
    n = len(arrivals)
    # identity: sum(max - t_i) == n*max - sum(t_i)
    np.testing.assert_allclose(
        reclaim, n * arrivals.max() - arrivals.sum(), rtol=1e-9, atol=1e-12
    )
    ratio = idle_ratio(arrivals)[0]
    assert 0.0 <= ratio < 1.0
    # shifting all arrivals later decreases the ratio, never increases it
    shifted = idle_ratio(arrivals + 0.05)[0]
    assert shifted <= ratio + 1e-12


@given(arrivals_strategy, st.integers(10_000, 5_000_000))
@settings(max_examples=60, deadline=None)
def test_earlybird_never_loses_to_bulk_and_bounds_hold(arrivals, buffer_bytes):
    model = EarlyBirdModel(FLAT, buffer_bytes=buffer_bytes, hops=1)
    outcome = model.evaluate(arrivals)
    # early-bird can never finish after the bulk send (same data, same NIC,
    # bulk is the degenerate "everything ready at the last arrival" plan)
    assert outcome.earlybird_completion_s <= outcome.bulk_completion_s + 1e-12
    # and never before the last thread's own partition could possibly arrive
    last_partition_floor = arrivals.max() + FLAT.wire_latency(1)
    assert outcome.earlybird_completion_s >= last_partition_floor - 1e-12
    # the "green boxes" of Figure 2 sum to exactly the reclaimable time
    np.testing.assert_allclose(
        outcome.potential_overlap_s, reclaimable_time(arrivals)[0], rtol=1e-9, atol=1e-15
    )


@given(arrivals_strategy)
@settings(max_examples=60, deadline=None)
def test_partitioned_deliveries_follow_ready_order_on_fifo_nic(arrivals):
    transfer = partitioned_completion_times(arrivals, 4096, FLAT, hops=1)
    order_by_ready = np.argsort(transfer.ready_times(), kind="stable")
    deliveries = transfer.delivery_times()[order_by_ready]
    assert np.all(np.diff(deliveries) >= -1e-12)


@given(arrivals_strategy, st.integers(50_000, 2_000_000))
@settings(max_examples=60, deadline=None)
def test_all_strategies_deliver_everything_after_last_arrival(arrivals, buffer_bytes):
    strategies = [
        BulkStrategy(),
        FineGrainedStrategy(),
        BinnedStrategy(4),
        TimeoutStrategy(1e-3),
    ]
    for strategy in strategies:
        outcome = strategy.evaluate(
            arrivals, buffer_bytes=buffer_bytes, network=FLAT, hops=1
        )
        assert outcome.bytes_sent == buffer_bytes
        assert outcome.completion_s >= arrivals.max()
        assert outcome.first_delivery_s <= outcome.completion_s
