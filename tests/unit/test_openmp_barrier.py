"""Unit tests for the simulated barrier."""

import pytest

from repro.openmp.barrier import Barrier
from repro.sim.engine import SimulationEngine
from repro.sim.events import Delay


def _run_team(durations, n_rounds=1):
    """Spawn one thread per duration; every round: compute then barrier."""
    engine = SimulationEngine()
    barrier = Barrier(engine, len(durations))
    finish_times = {}

    def body(thread_id, duration):
        for round_idx in range(n_rounds):
            yield Delay(duration)
            yield from barrier.wait(thread_id)
        finish_times[thread_id] = engine.now

    procs = [
        engine.spawn(body(t, d), name=f"t{t}") for t, d in enumerate(durations)
    ]
    engine.run_until_complete(procs)
    return engine, barrier, finish_times


class TestBarrier:
    def test_all_threads_released_at_last_arrival(self):
        _, barrier, finish = _run_team([1.0, 2.0, 5.0])
        assert barrier.release_times[0] == pytest.approx(5.0)
        assert all(t == pytest.approx(5.0) for t in finish.values())

    def test_barrier_is_reusable_across_generations(self):
        _, barrier, finish = _run_team([1.0, 3.0], n_rounds=3)
        assert barrier.generation == 3
        assert all(t == pytest.approx(9.0) for t in finish.values())

    def test_single_thread_barrier_never_blocks(self):
        _, barrier, finish = _run_team([2.0])
        assert finish[0] == pytest.approx(2.0)
        assert barrier.generation == 1

    def test_invalid_thread_count_rejected(self):
        with pytest.raises(ValueError):
            Barrier(SimulationEngine(), 0)
