"""Machine configuration presets.

A :class:`MachineConfig` bundles the node layout and the OS-noise
population into a single object the campaign runner can pass around.
:func:`manzano` reproduces the paper's test platform (§3.2).

The presets here are also registered by name in the machine registry
(:mod:`repro.scenarios.machines`, ``get_machine("manzano")``), alongside the
additional ``fatnode`` and ``cloudvm`` platforms; these module-level
factories remain the stable construction API.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.cluster.noise import NoiseSpec, OSNoiseModel


@dataclass
class MachineConfig:
    """Full description of the simulated machine.

    Parameters
    ----------
    n_nodes, sockets_per_node, cores_per_socket, frequency_ghz, memory_gb:
        Node layout: ``n_nodes`` identical nodes of ``sockets_per_node``
        sockets with ``cores_per_socket`` cores each.
    noise_spec:
        OS noise population (see :class:`repro.cluster.noise.NoiseSpec`).
    name:
        Label used in reports and dataset metadata.
    """

    n_nodes: int = 1
    sockets_per_node: int = 2
    cores_per_socket: int = 24
    frequency_ghz: float = 2.9
    memory_gb: float = 192.0
    noise_spec: NoiseSpec = field(default_factory=NoiseSpec)
    name: str = "generic"

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")

    # ------------------------------------------------------------------
    @property
    def cores_per_node(self) -> int:
        return self.sockets_per_node * self.cores_per_socket

    def build_noise_model(self, rng: Optional[np.random.Generator] = None) -> OSNoiseModel:
        """Instantiate the OS-noise model (one per process/trial)."""
        return OSNoiseModel(self.noise_spec, rng=rng)

    def without_noise(self) -> "MachineConfig":
        """Copy of this configuration with OS noise disabled (ablation A2)."""
        return replace(self, noise_spec=self.noise_spec.disabled())

    def with_noise(self, noise_spec: NoiseSpec) -> "MachineConfig":
        """Copy of this configuration with a replacement noise population."""
        return replace(self, noise_spec=noise_spec)

    def with_noise_profile(self, profile: str) -> "MachineConfig":
        """Copy of this configuration under a registered noise profile.

        Profile names resolve through
        :func:`repro.scenarios.sources.noise_profile` (``"default"``,
        ``"none"``, ``"heavy-tail"``, ``"bursty"``, ``"storm"``, ...).
        """
        from repro.scenarios.sources import noise_profile

        return replace(self, noise_spec=noise_profile(profile))


def manzano(n_nodes: int = 2) -> MachineConfig:
    """The paper's test platform (§3.2).

    Two 24-core Intel Cascade Lake sockets per node at 2.90 GHz, 192 GB RAM,
    RHEL7 (standard HPC noise profile), Omni-Path interconnect (modelled in
    :mod:`repro.mpi.network`).
    """
    return MachineConfig(
        n_nodes=n_nodes,
        sockets_per_node=2,
        cores_per_socket=24,
        frequency_ghz=2.9,
        memory_gb=192.0,
        noise_spec=NoiseSpec(),
        name="manzano",
    )


def laptop() -> MachineConfig:
    """A small single-socket machine, handy for examples and tests."""
    return MachineConfig(
        n_nodes=1,
        sockets_per_node=1,
        cores_per_socket=8,
        frequency_ghz=3.2,
        memory_gb=32.0,
        noise_spec=NoiseSpec(),
        name="laptop",
    )
