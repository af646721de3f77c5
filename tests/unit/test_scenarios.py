"""Unit tests of the scenario subsystem: registries, presets, composition."""

import numpy as np
import pytest

from repro.cluster.config import MachineConfig
from repro.cluster.noise import NoiseSourceSpec, NoiseSpec, OSNoiseModel
from repro.experiments.config import CampaignConfig
from repro.scenarios import (
    Scenario,
    ScenarioMatrix,
    available_machines,
    available_noise_profiles,
    available_noise_sources,
    available_scenarios,
    get_machine,
    get_noise_source,
    get_scenario,
    make_noise_source,
    noise_profile,
    register_machine,
    register_noise_source,
    register_scenario,
    unregister_machine,
    unregister_noise_source,
    unregister_scenario,
)
from repro.scenarios.sources import NoiseSource, PeriodicDaemonSource, SilentSource
from oracles.event import Core, WindowedNoiseModel, events_in

CORE = Core(0, 0, 0)


class TestNoiseSourceRegistry:
    def test_builtins_registered(self):
        assert {
            "periodic-daemon",
            "poisson-interrupts",
            "pareto-interrupts",
            "cron-burst",
            "network-storm",
            "silent",
        } <= set(available_noise_sources())

    def test_unknown_source_lists_registered(self):
        with pytest.raises(ValueError, match="registered sources"):
            get_noise_source("thermal-throttle")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_noise_source("silent")
            class Impostor(NoiseSource):
                def batch_extra(self, work, rng):
                    return np.zeros_like(work)

    def test_register_replace_and_unregister(self):
        @register_noise_source("test-temp", replace=True)
        class TempSource(SilentSource):
            pass

        try:
            assert get_noise_source("test-temp") is TempSource
        finally:
            unregister_noise_source("test-temp")
        assert "test-temp" not in available_noise_sources()

    def test_non_source_rejected(self):
        with pytest.raises(TypeError):
            register_noise_source("bogus")(object)

    def test_spec_round_trip(self):
        source = make_noise_source("pareto-interrupts", rate_hz=0.4, alpha=2.0)
        spec = source.spec()
        clone = make_noise_source(spec.kind, **spec.as_dict())
        assert clone.params() == source.params()

    def test_noise_source_spec_normalises_params(self):
        spec = NoiseSourceSpec("periodic-daemon", {"period_s": 1.0, "duration_s": 2.0})
        assert spec.params == (("duration_s", 2.0), ("period_s", 1.0))
        assert spec.as_dict() == {"period_s": 1.0, "duration_s": 2.0}


class TestBuiltinSources:
    @pytest.mark.parametrize("kind", sorted(set(available_noise_sources())))
    def test_events_and_batch_are_physical(self, kind):
        source = make_noise_source(kind)
        rng = np.random.default_rng(5)
        events = events_in(source, CORE.global_id, 0.0, 5.0, rng, {})
        for event in events:
            assert event.duration >= 0.0
            assert np.isfinite(event.start) and np.isfinite(event.duration)
        work = np.linspace(0.0, 0.5, 32)
        extra = source.batch_extra(work, rng)
        assert extra.shape == work.shape
        assert np.all(extra >= 0.0) and np.all(np.isfinite(extra))

    def test_silent_source_contributes_nothing(self):
        source = make_noise_source("silent")
        rng = np.random.default_rng(0)
        assert events_in(source, CORE.global_id, 0.0, 100.0, rng, {}) == []
        assert not source.batch_extra(np.ones(8), rng).any()

    def test_daemon_phase_is_stable_per_core(self):
        source = PeriodicDaemonSource(period_s=0.01, duration_s=1e-6)
        rng = np.random.default_rng(3)
        phases = {}
        first = events_in(source, CORE.global_id, 0.0, 0.1, rng, phases)
        again = events_in(source, CORE.global_id, 0.0, 0.1, rng, phases)
        assert [e.start for e in first] == [e.start for e in again]

    def test_pareto_rejects_non_positive_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            make_noise_source("pareto-interrupts", alpha=0.0)

    def test_cron_burst_events_respect_the_window(self):
        source = make_noise_source(
            "cron-burst", period_s=0.05, burst_mean=20.0, duration_s=2e-3, max_s=10e-3
        )
        rng = np.random.default_rng(11)
        start, end = 0.2, 0.45
        events = events_in(source, CORE.global_id, start, end, rng, {})
        assert events, "expected bursts inside a multi-period window"
        assert all(start <= e.start < end for e in events)

    def test_network_storm_events_respect_the_window(self):
        source = make_noise_source(
            "network-storm", storm_rate_hz=200.0, packets_mean=30.0, span_s=5e-3
        )
        rng = np.random.default_rng(13)
        start, end = 0.1, 0.15
        events = events_in(source, CORE.global_id, start, end, rng, {})
        assert events, "expected storms in a dense window"
        assert all(start <= e.start < end for e in events)


class TestNoiseSpecComposition:
    def test_default_spec_builds_seed_pair(self):
        kinds = [s.kind for s in NoiseSpec().build_sources()]
        assert kinds == ["periodic-daemon", "poisson-interrupts"]

    def test_explicit_sources_replace_the_pair(self):
        spec = NoiseSpec(sources=(NoiseSourceSpec.of("silent"),))
        kinds = [s.kind for s in spec.build_sources()]
        assert kinds == ["silent"]

    def test_disabled_keeps_sources(self):
        spec = NoiseSpec(sources=(NoiseSourceSpec.of("silent"),)).disabled()
        assert not spec.enabled
        assert spec.sources == (NoiseSourceSpec.of("silent"),)

    def test_sources_must_be_specs(self):
        with pytest.raises(TypeError, match="NoiseSourceSpec"):
            NoiseSpec(sources=("silent",))

    def test_model_accepts_explicit_source_instances(self):
        model = OSNoiseModel(
            NoiseSpec(jitter_fraction=0.0), np.random.default_rng(0),
            sources=[SilentSource()],
        )
        assert not model.batch_delays(np.ones(4)).any()
        timeline = WindowedNoiseModel(
            NoiseSpec(jitter_fraction=0.0), np.random.default_rng(0),
            sources=[SilentSource()],
        )
        assert timeline.delay_over(CORE, 0.0, 1.0) == 0.0

    def test_composed_model_horizon_sums_sources(self):
        model = WindowedNoiseModel(NoiseSpec(), np.random.default_rng(0))
        assert model.horizon_s == pytest.approx(
            NoiseSpec().daemon_period_s + NoiseSpec().interrupt_max_s
        )

    def test_profiles_cover_catalog(self):
        assert {"default", "none", "heavy-tail", "bursty", "storm", "cloud"} <= set(
            available_noise_profiles()
        )
        assert noise_profile("none").enabled is False
        heavy = noise_profile("heavy-tail")
        assert any(s.kind == "pareto-interrupts" for s in heavy.sources)
        with pytest.raises(ValueError, match="registered profiles"):
            noise_profile("quiet-ish")


class TestMachineRegistry:
    def test_builtins_registered(self):
        assert {"manzano", "laptop", "fatnode", "cloudvm"} <= set(available_machines())

    def test_manzano_entry_matches_shim(self):
        from repro.cluster.config import manzano

        assert get_machine("manzano").name == manzano().name
        assert get_machine("manzano", n_nodes=4).n_nodes == 4

    def test_fatnode_is_128_cores(self):
        assert get_machine("fatnode").cores_per_node == 128

    def test_cloudvm_is_noisy(self):
        machine = get_machine("cloudvm")
        kinds = {s.kind for s in machine.noise_spec.sources}
        assert {"pareto-interrupts", "network-storm"} <= kinds

    def test_descriptions_promise_no_clock_effects(self):
        # the samplers draw compute times, not clock readings: per-core
        # clocks exist only in the test tree's event oracle
        from repro.scenarios import machines

        texts = [get_scenario(name).description for name in available_scenarios()]
        texts += [machines.__doc__, machines.fatnode.__doc__, machines.cloudvm.__doc__]
        for text in texts:
            assert "clock" not in text.lower() and "tsc" not in text.lower(), text

    def test_unknown_machine_lists_registered(self):
        with pytest.raises(ValueError, match="registered machines"):
            get_machine("summit")

    def test_duplicate_registration_rejected_and_unregister(self):
        def tiny() -> MachineConfig:
            return MachineConfig(name="tiny")

        register_machine("test-tiny")(tiny)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_machine("test-tiny")(lambda: MachineConfig())
            assert get_machine("test-tiny").name == "tiny"
        finally:
            unregister_machine("test-tiny")
        assert "test-tiny" not in available_machines()


class TestScenarioRegistry:
    def test_catalog_contains_flagship_scenarios(self):
        assert {
            "manzano-default",
            "manzano-quiet",
            "fatnode-default",
            "cloudvm-default",
        } <= set(available_scenarios())

    def test_every_pinned_backend_is_registered(self):
        from repro.experiments.backends import available_backends

        pinned = {
            name: get_scenario(name).backend
            for name in available_scenarios()
            if get_scenario(name).backend is not None
        }
        assert pinned, "the catalog pins at least one backend"
        for name, backend in pinned.items():
            assert backend in available_backends(), name

    def test_unknown_scenario_lists_registered(self):
        with pytest.raises(ValueError, match="registered scenarios"):
            get_scenario("perlmutter-default")

    def test_duplicate_registration_rejected(self):
        clash = Scenario(name="manzano-default", machine="laptop")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(clash)

    def test_reregistering_equal_scenario_is_idempotent(self):
        existing = get_scenario("manzano-default")
        assert register_scenario(existing) is existing

    def test_register_and_unregister_custom(self):
        custom = Scenario(name="test-custom", machine="laptop", noise="none")
        register_scenario(custom)
        try:
            assert get_scenario("test-custom") == custom
        finally:
            unregister_scenario("test-custom")
        assert "test-custom" not in available_scenarios()


class TestScenarioConfig:
    def test_campaign_config_carries_scenario_recipe(self):
        config = get_scenario("manzano-dynamic").campaign_config("smoke")
        assert isinstance(config, CampaignConfig)
        assert config.scenario == "manzano-dynamic"
        assert config.schedule == "dynamic"
        assert config.machine.name == "manzano"
        assert config.application == "minife"

    def test_noise_override_applies_to_machine(self):
        config = get_scenario("manzano-quiet").campaign_config("smoke")
        assert config.machine.noise_spec.enabled is False

    def test_dimension_overrides(self):
        config = get_scenario("manzano-default").campaign_config(
            "smoke", trials=3, threads=8, seed=99, max_workers=2
        )
        assert (config.trials, config.threads, config.seed) == (3, 8, 99)
        assert config.max_workers == 2

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            get_scenario("manzano-default").campaign_config("galactic")

    def test_scenario_requires_name(self):
        with pytest.raises(ValueError, match="name"):
            Scenario(name="  ")


class TestScenarioMatrix:
    def test_expansion_size_and_unique_names(self):
        matrix = ScenarioMatrix(
            machines=("manzano", "laptop"),
            applications=("minife", "minimd"),
            noises=(None, "heavy-tail"),
            schedules=(None, "dynamic,4"),
        )
        scenarios = matrix.expand()
        assert len(matrix) == len(scenarios) == 16
        names = [s.name for s in scenarios]
        assert len(set(names)) == 16
        assert "manzano-minife" in names
        assert "laptop-minimd-heavy-tail-dynamic-c4" in names

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ScenarioMatrix(machines=())

    def test_configs_expand_to_campaign_configs(self):
        matrix = ScenarioMatrix(noises=(None, "none"))
        configs = matrix.configs("smoke", max_workers=2)
        assert [c.machine.noise_spec.enabled for c in configs] == [True, False]
        assert all(c.max_workers == 2 for c in configs)


class TestCampaignConfigValidation:
    def test_max_workers_zero_rejected_at_construction(self):
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            CampaignConfig.smoke().parallel(0)

    def test_max_workers_negative_rejected(self):
        with pytest.raises(ValueError, match="serial execution"):
            CampaignConfig(max_workers=-4)

    def test_max_workers_non_integer_rejected(self):
        with pytest.raises(TypeError, match="integer"):
            CampaignConfig(max_workers=2.5)
        with pytest.raises(TypeError, match="integer"):
            CampaignConfig(max_workers=True)

    def test_bad_schedule_clause_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            CampaignConfig(schedule="fifo")

    def test_with_schedule_round_trip(self):
        config = CampaignConfig.smoke().with_schedule("guided")
        assert config.schedule == "guided"
        assert config.with_schedule(None).schedule is None


class TestSumPerWindow:
    """The vectorised window summation must stay bit-identical to the
    seed's per-window ``np.split``/``seg.sum()`` idiom — this is what keeps
    pre-batched-kernel recorded datasets reproducible from the same seed."""

    @staticmethod
    def _seed_idiom(durations, flat_counts, shape):
        boundaries = np.cumsum(flat_counts)[:-1]
        return np.array(
            [seg.sum() for seg in np.split(durations, boundaries)]
        ).reshape(shape)

    @pytest.mark.parametrize("lam", [0.02, 0.8, 6.0, 40.0])
    def test_bit_identical_to_seed_idiom(self, lam):
        from repro.scenarios.sources import _sum_per_window

        rng = np.random.default_rng(17)
        for _ in range(40):
            counts = rng.poisson(lam, size=int(rng.integers(1, 60)))
            durations = rng.exponential(1e-3, size=int(counts.sum()))
            expected = self._seed_idiom(durations, counts, counts.shape)
            actual = _sum_per_window(durations, counts, counts.shape)
            np.testing.assert_array_equal(actual, expected)

    def test_2d_window_shapes(self):
        from repro.scenarios.sources import _sum_per_window

        rng = np.random.default_rng(23)
        counts = rng.poisson(5.0, size=(7, 9))
        durations = rng.exponential(1e-3, size=int(counts.sum()))
        expected = self._seed_idiom(durations, counts.ravel(), counts.shape)
        np.testing.assert_array_equal(
            _sum_per_window(durations, counts.ravel(), counts.shape), expected
        )

    def test_all_empty_windows(self):
        from repro.scenarios.sources import _sum_per_window

        out = _sum_per_window(np.empty(0), np.zeros(5, dtype=np.int64), (5,))
        np.testing.assert_array_equal(out, np.zeros(5))
