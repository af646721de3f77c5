"""Unit tests for machine configuration presets."""

import numpy as np
import pytest

from repro.cluster.config import MachineConfig, laptop, manzano


class TestPresets:
    def test_manzano_matches_paper_platform(self):
        config = manzano()
        assert config.sockets_per_node == 2
        assert config.cores_per_socket == 24
        assert config.cores_per_node == 48
        assert config.frequency_ghz == pytest.approx(2.9)

    def test_laptop_is_smaller(self):
        assert laptop().cores_per_node < manzano().cores_per_node


class TestBuilders:
    def test_build_noise_model(self):
        noise = manzano().build_noise_model(np.random.default_rng(0))
        assert noise.spec.enabled

    def test_without_noise_is_a_disabled_copy(self):
        config = manzano()
        quiet = config.without_noise()
        assert not quiet.noise_spec.enabled
        assert config.noise_spec.enabled  # original untouched

    def test_invalid_node_count_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(n_nodes=0)
