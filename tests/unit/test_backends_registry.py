"""Unit tests for the campaign backend registry.

The package registers ``"campaign"`` (the default); the test tree adds the
per-iteration and discrete-event reference samplers as ``"vectorized"`` and
``"event"`` (:mod:`oracles.vectorized`, :mod:`oracles.event`), which these
tests also use as registrable third-party backends.
"""

import importlib.util
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.aggregation import campaign_block
from repro.core.timing import TimingDataset
from oracles.vectorized import VectorizedBackend
from repro.experiments.backends import (
    CampaignBackend,
    ShardSpec,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession
from repro.sim.random import RandomStreams


SRC = Path(__file__).resolve().parents[2] / "src"
TESTS = Path(__file__).resolve().parents[1]


def _package_only(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` with the package on the path and no test tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"vectorized", "event", "campaign"} <= set(available_backends())

    def test_campaign_is_the_default_backend(self):
        assert CampaignConfig().backend == "campaign"
        assert CampaignConfig.smoke().backend == "campaign"

    def test_package_ships_campaign_only(self):
        probe = _package_only(
            "-c",
            "from repro.experiments.backends import available_backends; "
            "print(','.join(available_backends()))",
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "campaign"

    @pytest.mark.parametrize("oracle", ["vectorized", "event"])
    def test_cli_backend_vectorized_is_a_usage_error(self, oracle):
        # argparse takes --backend's choices from the registry, and the
        # reference samplers are registered by the tests only
        run = _package_only("-m", "repro", "--backend", oracle)
        assert run.returncode == 2
        assert f"invalid choice: '{oracle}'" in run.stderr

    def test_default_cli_import_loads_no_event_stack_or_oracle(self, tmp_path):
        # with the test tree importable too: the runner must not pull in
        # a reference sampler (the discrete-event kernel is one of them),
        # the pool's standard library or a module only another path runs
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))

        def loaded_by(*argv: str) -> set:
            probe = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "import sys, repro.experiments.runner as runner\n"
                    "if sys.argv[1:]:\n"
                    "    assert runner.main(sys.argv[1:]) == 0\n"
                    "print(*sorted(sys.modules))",
                    *argv,
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert probe.returncode == 0, probe.stderr
            return set(probe.stdout.splitlines()[-1].split())

        loaded = loaded_by()
        assert "repro.experiments.runner" in loaded
        for name in (
            "multiprocessing",
            "concurrent.futures",
            "repro.mpi.partitioned",
            "repro.core.strategies",
            "repro.core.endtoend",
            "repro.io.cache_tier",
            "repro.io.shard_store",
        ):
            # a name that no longer exists would pass vacuously
            assert importlib.util.find_spec(name) is not None, name
            assert name not in loaded
        assert not {name for name in loaded if name.split(".")[0] == "oracles"}
        # the deferral is real: a serial run never loads the pool ...
        smoke = ("--scale", "smoke", "--output")
        assert "multiprocessing" not in loaded_by(*smoke, str(tmp_path / "serial"))
        # ... and a pooled run does, so the probe sees it when it is there
        pooled = loaded_by(*smoke, str(tmp_path / "pooled"), "--max-workers", "2")
        assert "multiprocessing" in pooled

    def test_get_backend_returns_named_instances(self):
        for name in available_backends():
            backend = get_backend(name)
            assert isinstance(backend, CampaignBackend)
            assert backend.name == name

    def test_lookup_is_case_and_whitespace_insensitive(self):
        assert type(get_backend(" Vectorized ")) is type(get_backend("vectorized"))

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("warp-drive")
        message = str(excinfo.value)
        assert "warp-drive" in message
        for name in available_backends():
            assert name in message

    @pytest.mark.parametrize("retired", ["batched", "chunked"])
    def test_retired_backend_names_are_unknown(self, retired):
        # the per-shard kernel and the streaming flavour of vectorized were
        # folded into "campaign"/"vectorized": old configs fail loudly,
        # naming the backends that remain
        for build in (get_backend, lambda name: CampaignConfig(backend=name)):
            with pytest.raises(ValueError) as excinfo:
                build(retired)
            message = str(excinfo.value)
            assert retired in message
            assert "campaign, event, vectorized" in message

    @pytest.mark.parametrize("retired", ["batched", "chunked"])
    def test_cli_rejects_retired_backend_names(self, retired, capsys):
        from repro.experiments.runner import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", retired])
        assert "invalid choice" in capsys.readouterr().err

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_backend("vectorized")
            class Impostor(VectorizedBackend):
                pass

        assert type(get_backend("vectorized")) is VectorizedBackend

    def test_replace_registration_allowed_and_reversible(self):
        @register_backend("vectorized", replace=True)
        class Replacement(VectorizedBackend):
            pass

        try:
            assert type(get_backend("vectorized")) is Replacement
        finally:
            register_backend("vectorized", replace=True)(VectorizedBackend)
        assert type(get_backend("vectorized")) is VectorizedBackend

    def test_non_backend_class_rejected(self):
        with pytest.raises(TypeError):
            register_backend("bogus")(dict)

    def test_custom_backend_end_to_end(self):
        @register_backend("unit-test-constant")
        class ConstantBackend(CampaignBackend):
            """Every thread takes exactly 1 ms — handy for assertions."""

            def shard_specs(self, config):
                return [
                    ShardSpec(trial=t, process=p)
                    for t in range(config.trials)
                    for p in range(config.processes)
                ]

            def unit_block(self, config, spec):
                times = np.full((1, config.iterations, config.threads), 1.0e-3)
                return campaign_block([(spec.trial, spec.process)], times)

        try:
            config = CampaignConfig.smoke(application="minife")
            config.backend = "unit-test-constant"
            dataset = CampaignSession(config).run(use_cache=False).dataset
            assert isinstance(dataset, TimingDataset)
            assert dataset.n_samples == config.samples_per_application
            np.testing.assert_allclose(dataset.compute_times_s, 1.0e-3)
            assert dataset.metadata["backend"] == "unit-test-constant"
        finally:
            unregister_backend("unit-test-constant")
        assert "unit-test-constant" not in available_backends()

    def test_backend_without_unit_block_is_abstract(self):
        class Incomplete(CampaignBackend):
            def shard_specs(self, config):
                return []

        with pytest.raises(TypeError, match="unit_block"):
            Incomplete()


class SeededBackend(CampaignBackend):
    """A user backend of two methods: per-(trial, process) shards whose
    samples are drawn from a stream named by the shard (module-level, so
    process pools can pickle it)."""

    def shard_specs(self, config):
        return [
            ShardSpec(trial=t, process=p)
            for t in range(config.trials)
            for p in range(config.processes)
        ]

    def unit_block(self, config, spec):
        rng = RandomStreams(config.seed).get("seeded", spec.trial, spec.process)
        times = rng.uniform(1e-3, 2e-3, size=(1, config.iterations, config.threads))
        return campaign_block([(spec.trial, spec.process)], times)


@pytest.fixture()
def seeded_config():
    register_backend("unit-test-seeded")(SeededBackend)
    try:
        yield CampaignConfig.smoke("minife").scaled(trials=3).with_backend(
            "unit-test-seeded"
        )
    finally:
        unregister_backend("unit-test-seeded")


class TestUserBackendContract:
    """``shard_specs`` and ``unit_block`` are all a backend defines: the
    executor gives one dataset serially, on either pool and out of core."""

    def test_every_route_gives_one_dataset(self, seeded_config, tmp_path):
        serial = CampaignSession(seeded_config).run(use_cache=False).dataset
        assert serial.n_samples == seeded_config.samples_per_application
        pooled = seeded_config.parallel(2)
        routes = {
            "thread": CampaignSession(pooled, executor_mode="thread").run(
                use_cache=False
            ),
            "out-of-core": CampaignSession(
                pooled, cache_dir=tmp_path, executor_mode="thread"
            ).run(use_cache=False, store=True),
        }
        if "fork" in multiprocessing.get_all_start_methods():
            routes["process"] = CampaignSession(pooled).run(use_cache=False)
        for route, result in routes.items():
            dataset = result.dataset
            for name in serial.columns:
                assert np.array_equal(
                    serial.column(name), dataset.column(name)
                ), (route, name)


class TestConfigValidation:
    def test_unknown_backend_rejected_with_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            CampaignConfig(backend="gpu")
        message = str(excinfo.value)
        assert "gpu" in message
        assert "vectorized" in message and "event" in message

    def test_registered_custom_backend_accepted(self):
        @register_backend("unit-test-accepted")
        class Accepted(VectorizedBackend):
            pass

        try:
            config = CampaignConfig.smoke()
            config = config.with_backend("unit-test-accepted")
            assert config.backend == "unit-test-accepted"
        finally:
            unregister_backend("unit-test-accepted")

    def test_backend_name_normalised_like_get_backend(self):
        config = CampaignConfig.smoke()
        config = config.with_backend(" Vectorized ")
        assert config.backend == "vectorized"

    def test_max_workers_validated(self):
        with pytest.raises(ValueError, match="max_workers"):
            CampaignConfig(max_workers=0)
        assert CampaignConfig.smoke().parallel(4).max_workers == 4


class TestShardSpecs:
    def test_vectorized_shards_per_trial_process(self):
        config = CampaignConfig.smoke().scaled(trials=3, processes=2)
        specs = get_backend("vectorized").shard_specs(config)
        assert len(specs) == 6
        assert specs[0] == ShardSpec(trial=0, process=0)
        assert specs[-1] == ShardSpec(trial=2, process=1)

    def test_campaign_shares_vectorized_decomposition(self):
        config = CampaignConfig.smoke()
        assert get_backend("campaign").shard_specs(config) == get_backend(
            "vectorized"
        ).shard_specs(config)

    def test_event_shards_per_process_and_works_per_trial(self):
        config = CampaignConfig.smoke().scaled(trials=4)
        backend = get_backend("event")
        assert backend.shard_specs(config) == get_backend("campaign").shard_specs(config)
        assert backend.work_units(config, 2) == [0, 1, 2, 3]

    def test_shard_spec_needs_a_process(self):
        with pytest.raises(TypeError):
            ShardSpec(trial=0)
