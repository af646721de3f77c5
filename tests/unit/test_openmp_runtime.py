"""Unit tests for the discrete-event reference's OpenMP runtime (team +
region execution on the event engine)."""

import numpy as np
import pytest

from oracles.event import (
    ClockDomain,
    ClockSpec,
    OpenMPRuntime,
    ThreadTeam,
    WindowedNoiseModel,
    place_processes,
)
from repro.cluster.config import MachineConfig
from repro.cluster.noise import NoiseSpec
from repro.openmp.schedule import DynamicSchedule, StaticSchedule


def _team(n_threads=4, noise_enabled=False, seed=0):
    machine = MachineConfig(sockets_per_node=2, cores_per_socket=(n_threads + 1) // 2)
    (cores,) = place_processes(machine, 1, n_threads)
    clock_domain = ClockDomain(
        ClockSpec(read_jitter_ns=0.0, drift_ppm=0.0), np.random.default_rng(seed)
    )
    spec = NoiseSpec() if noise_enabled else NoiseSpec().disabled()
    noise = WindowedNoiseModel(spec, np.random.default_rng(seed + 1))
    return ThreadTeam(cores, clock_domain, noise, rng=np.random.default_rng(seed + 2))


class TestThreadTeam:
    def test_one_thread_per_core(self):
        team = _team(4)
        assert team.n_threads == 4
        assert [t.thread_id for t in team.threads] == [0, 1, 2, 3]

    def test_spans_sockets_when_team_is_large(self):
        team = _team(4)
        assert team.spans_sockets()

    def test_empty_team_rejected(self):
        clock_domain = ClockDomain(ClockSpec())
        noise = WindowedNoiseModel(NoiseSpec())
        with pytest.raises(ValueError):
            ThreadTeam([], clock_domain, noise)


class TestRegions:
    def test_compute_time_equals_busy_time_without_noise(self):
        team = _team(4)
        runtime = OpenMPRuntime(team)
        costs = np.full(8, 1.0e-3)  # 8 items of 1 ms, 2 per thread
        execution = runtime.run_region(costs, schedule=StaticSchedule())
        # clock readings are whole nanoseconds, so allow ns-level rounding
        np.testing.assert_allclose(execution.compute_times_s(), 2.0e-3, atol=5e-9)
        assert execution.n_threads == 4

    def test_derived_compute_time_matches_wall_time(self):
        team = _team(4)
        runtime = OpenMPRuntime(team)
        execution = runtime.run_region(np.full(4, 2.0e-3))
        np.testing.assert_allclose(
            execution.compute_times_s(), execution.wall_times_s(), rtol=1e-6
        )

    def test_time_advances_across_regions(self):
        team = _team(2)
        runtime = OpenMPRuntime(team)
        first = runtime.run_region(np.full(2, 1.0e-3), iteration=0)
        second = runtime.run_region(np.full(2, 1.0e-3), iteration=1)
        assert second.region_start > first.region_end - 1e-12
        assert [first.iteration, second.iteration] == [0, 1]

    def test_reclaimable_time_of_imbalanced_region(self):
        team = _team(2)
        runtime = OpenMPRuntime(team)
        costs = np.array([1.0e-3, 3.0e-3])  # one item each, imbalanced
        execution = runtime.run_region(costs, schedule=StaticSchedule(chunk=1))
        assert execution.reclaimable_time_s() == pytest.approx(2.0e-3, rel=1e-4)


class TestScheduling:
    def test_matches_closed_form_fold_without_noise(self):
        costs = np.linspace(0.5e-3, 1.5e-3, 12)
        detailed = OpenMPRuntime(_team(4, seed=3)).run_region(
            costs, schedule=StaticSchedule()
        )
        busy = StaticSchedule().simulate_campaign(costs[np.newaxis, np.newaxis], 4)[0, 0]
        # clock readings are whole nanoseconds
        np.testing.assert_allclose(detailed.compute_times_s(), busy, atol=2e-9)

    def test_detailed_dynamic_schedule_executes_all_items(self):
        team = _team(3)
        runtime = OpenMPRuntime(team)
        costs = np.random.default_rng(0).uniform(0.1e-3, 0.4e-3, size=17)
        execution = runtime.run_region(
            costs, schedule=DynamicSchedule(chunk=2)
        )
        executed = np.concatenate([t.items for t in execution.threads])
        assert sorted(executed.tolist()) == list(range(17))
        total_work = sum(t.work_s for t in execution.threads)
        assert total_work == pytest.approx(costs.sum(), rel=1e-9)

    def test_noise_accounting_balances_wall_time(self):
        team = _team(4, noise_enabled=True, seed=9)
        runtime = OpenMPRuntime(team)
        execution = runtime.run_region(np.full(4, 5.0e-3))
        for thread in execution.threads:
            # wall time = pure work + (jitter + preemption) accounting
            assert thread.wall_s == pytest.approx(thread.work_s + thread.noise_s, rel=1e-9)
        # with noise enabled the threads no longer finish in lockstep
        assert execution.arrival_spread_s() > 0.0
