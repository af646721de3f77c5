"""Unit tests for the campaign backend registry."""

import numpy as np
import pytest

from repro.core.timing import TimingDataset, TimingShard
from repro.experiments.backends import (
    CampaignBackend,
    ShardSpec,
    VectorizedBackend,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.experiments.config import CampaignConfig


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"vectorized", "event", "campaign"} <= set(available_backends())

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

            def run_shard(self, config, spec, streams):
                n = config.iterations * config.threads
                iteration, thread = np.divmod(np.arange(n), config.threads)
                columns = {
                    "trial": np.full(n, spec.trial),
                    "process": np.full(n, spec.process),
                    "iteration": iteration,
                    "thread": thread,
                    "compute_time_s": np.full(n, 1.0e-3),
                }
                return TimingShard(
                    trial=spec.trial, process=spec.process, columns=columns
                )

        try:
            config = CampaignConfig.smoke(application="minife")
            config.backend = "unit-test-constant"
            dataset = get_backend("unit-test-constant").run(config)
            assert isinstance(dataset, TimingDataset)
            assert dataset.n_samples == config.samples_per_application
            np.testing.assert_allclose(dataset.compute_times_s, 1.0e-3)
            assert dataset.metadata["backend"] == "unit-test-constant"
        finally:
            unregister_backend("unit-test-constant")
        assert "unit-test-constant" not in available_backends()


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

    def test_event_shards_per_trial(self):
        config = CampaignConfig.smoke().scaled(trials=4)
        specs = get_backend("event").shard_specs(config)
        assert specs == [ShardSpec(trial=t) for t in range(4)]
