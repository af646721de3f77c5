"""Property-based tests of the OpenMP loop schedules: the program's
campaign folds against the per-row heap replay of :mod:`oracles.schedule`."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.openmp.schedule import DynamicSchedule, GuidedSchedule, StaticSchedule

from oracles.schedule import simulate, static_assignment

costs_strategy = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(0, 300),
    elements=st.floats(0.0, 1e-2, allow_nan=False),
)
threads_strategy = st.integers(1, 64)
schedule_strategy = st.sampled_from(
    [StaticSchedule(), StaticSchedule(4), DynamicSchedule(1), DynamicSchedule(7), GuidedSchedule(2)]
)


@given(costs_strategy, threads_strategy, schedule_strategy)
@settings(max_examples=120, deadline=None)
def test_every_item_executed_exactly_once(costs, n_threads, schedule):
    outcome = simulate(schedule, costs, n_threads)
    executed = np.concatenate([np.asarray(a, dtype=np.int64) for a in outcome.assignment])
    assert sorted(executed.tolist()) == list(range(len(costs)))


@given(costs_strategy, threads_strategy, schedule_strategy)
@settings(max_examples=120, deadline=None)
def test_work_is_conserved(costs, n_threads, schedule):
    outcome = simulate(schedule, costs, n_threads)
    np.testing.assert_allclose(
        outcome.busy_time.sum(), costs.sum(), rtol=1e-9, atol=1e-15
    )
    assert len(outcome.busy_time) == n_threads
    assert np.all(outcome.busy_time >= 0.0)


@given(costs_strategy, threads_strategy)
@settings(max_examples=80, deadline=None)
def test_static_blocks_are_contiguous_and_ordered(costs, n_threads):
    assignment = static_assignment(StaticSchedule(), len(costs), n_threads)
    previous_end = 0
    for block in assignment:
        if len(block) == 0:
            continue
        assert block[0] == previous_end
        assert np.all(np.diff(block) == 1)
        previous_end = block[-1] + 1
    assert previous_end == len(costs)


@given(costs_strategy, st.integers(2, 32))
@settings(max_examples=80, deadline=None)
def test_dynamic_makespan_never_worse_than_serial_and_not_better_than_ideal(costs, n_threads):
    outcome = simulate(DynamicSchedule(1), costs, n_threads)
    makespan = outcome.busy_time.max() if len(costs) else 0.0
    ideal = costs.sum() / n_threads
    assert makespan <= costs.sum() + 1e-12
    assert makespan >= ideal - 1e-12


# ----------------------------------------------------------------------
# the row-vectorized work-queue kernel: bit-identical to the heap replay
# ----------------------------------------------------------------------
workqueue_schedules = st.sampled_from(
    [
        DynamicSchedule(1),
        DynamicSchedule(3),
        DynamicSchedule(7),
        GuidedSchedule(1),
        GuidedSchedule(2),
        GuidedSchedule(5),
    ]
)

# tie-heavy pools: with only a couple of distinct values, equal chunk costs
# (and therefore equal thread available times) occur constantly, hammering
# the argmin-vs-heap (time, thread) tie-break; the float pool exercises the
# generic accumulation path
tie_elements = st.sampled_from([0.0, 2.5e-4, 1.0e-3])
float_elements = st.floats(0.0, 1e-2, allow_nan=False)


@st.composite
def cost_tensors(draw):
    n_shards = draw(st.integers(1, 3))
    n_instances = draw(st.integers(1, 4))
    # includes n_items < n_threads (threads go up to 64 below) and the
    # empty loop
    n_items = draw(st.integers(0, 80))
    elements = draw(st.sampled_from([tie_elements, float_elements]))
    return draw(
        hnp.arrays(np.float64, (n_shards, n_instances, n_items), elements=elements)
    )


@given(costs=cost_tensors(), n_threads=threads_strategy, schedule=workqueue_schedules)
@settings(max_examples=150, deadline=None)
def test_workqueue_campaign_bit_identical_to_per_row_replay(costs, n_threads, schedule):
    """simulate_campaign must be *bit*-identical per row to simulate — busy
    times and the realised chunk-to-thread assignment — including under
    all-equal costs (thread-id tie-breaks) and rows with fewer items than
    threads."""
    busy = schedule.simulate_campaign(costs, n_threads)
    assert busy.shape == costs.shape[:2] + (n_threads,)
    n_shards, n_instances, n_items = costs.shape
    rows = costs.reshape(n_shards * n_instances, n_items)
    replayed, picks = schedule._workqueue_replay(rows, n_threads, want_picks=True)
    assert np.array_equal(replayed, busy.reshape(n_shards * n_instances, n_threads))
    for i, row in enumerate(rows):
        outcome = simulate(schedule, row, n_threads)
        assert np.array_equal(replayed[i], outcome.busy_time), f"row {i} busy diverged"
        assert picks[i].tolist() == [thread for thread, _, _ in outcome.chunks], (
            f"row {i} chunk assignment diverged"
        )


@given(
    costs=cost_tensors(),
    n_threads=threads_strategy,
    schedule=st.sampled_from([StaticSchedule(), StaticSchedule(1), StaticSchedule(4)]),
)
@settings(max_examples=100, deadline=None)
def test_static_campaign_bit_identical_to_per_row_simulate(costs, n_threads, schedule):
    """The closed-form static folds (one reduceat; round-robin chunks via
    np.add.at) must reproduce simulate's busy times bit for bit."""
    busy = schedule.simulate_campaign(costs, n_threads)
    for index in np.ndindex(*costs.shape[:2]):
        assert np.array_equal(busy[index], simulate(schedule, costs[index], n_threads).busy_time)
