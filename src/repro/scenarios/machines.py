"""Machine registry: named :class:`~repro.cluster.config.MachineConfig` presets.

The seed shipped two hardcoded presets (``manzano``, ``laptop``) as module
functions.  They are now *registered entries* — ``@register_machine``
decorates a factory returning a fresh :class:`MachineConfig` — alongside two
new platforms that stretch the paper's claims in opposite directions:

* ``fatnode`` — a 128-core dual-socket node with a synchronised TSC: wide
  teams, deterministic clocks, noise dominated by the interrupt population.
* ``cloudvm`` — a small oversubscribed cloud instance with a wide clock
  spread and the ``cloud`` noise profile (fast ticks, frequent interrupts,
  heavy tails and network storms), the hostile end of the spectrum.

Factories take keyword overrides (``get_machine("manzano", n_nodes=4)``)
which are forwarded verbatim, so presets stay parametric.
"""

from __future__ import annotations

from typing import Callable

from repro._registry import Registry
from repro.cluster.clock import ClockSpec
from repro.cluster.config import MachineConfig, laptop, manzano

MachineFactory = Callable[..., MachineConfig]

_MACHINES: Registry[MachineFactory] = Registry(
    "machine",
    "machines",
    accepts=callable,
    expects="a MachineConfig factory",
    name_attr="__name__",
)

#: decorator registering a :class:`MachineConfig` factory, bare (under its
#: ``__name__``) or named (``@register_machine("cloudvm", replace=...)``)
register_machine = _MACHINES.register
available_machines = _MACHINES.names
unregister_machine = _MACHINES.unregister


def get_machine(name: str, **overrides) -> MachineConfig:
    """Build the machine registered under ``name``.

    Keyword overrides are forwarded to the factory (e.g. ``n_nodes=4``).
    """
    config = _MACHINES.lookup(name)(**overrides)
    if not isinstance(config, MachineConfig):
        raise TypeError(
            f"machine factory {name!r} returned {type(config).__name__}, "
            "expected MachineConfig"
        )
    return config


# ----------------------------------------------------------------------
# built-in presets
# ----------------------------------------------------------------------
register_machine("manzano")(manzano)
register_machine("laptop")(laptop)


@register_machine("fatnode")
def fatnode(n_nodes: int = 1) -> MachineConfig:
    """A fat 128-core node (two 64-core sockets, synchronised TSC).

    The wide-team counterpoint to Manzano: one node hosts several 48-thread
    processes, per-core clocks are comparable (``tsc_reliable``), and the
    laggard population is carried almost entirely by the interrupt sources.
    """
    return MachineConfig(
        n_nodes=n_nodes,
        sockets_per_node=2,
        cores_per_socket=64,
        frequency_ghz=2.45,
        memory_gb=1024.0,
        clock_spec=ClockSpec(tsc_reliable=True, read_jitter_ns=10.0),
        name="fatnode",
    )


@register_machine("cloudvm")
def cloudvm(n_nodes: int = 1) -> MachineConfig:
    """A noisy oversubscribed cloud VM with a wide clock spread.

    Sixteen vCPUs on one socket, per-core clock offsets up to ~10^7 s with
    40 ppm drift (migrated guests), and the ``cloud`` noise profile: 4 ms
    steal-time ticks, frequent interrupts, Pareto-tailed stalls and
    network-interrupt storms.
    """
    from repro.scenarios.sources import noise_profile

    return MachineConfig(
        n_nodes=n_nodes,
        sockets_per_node=1,
        cores_per_socket=16,
        frequency_ghz=2.5,
        memory_gb=64.0,
        clock_spec=ClockSpec(
            max_offset_s=1.0e7, drift_ppm=40.0, read_jitter_ns=60.0, tsc_reliable=False
        ),
        noise_spec=noise_profile("cloud"),
        name="cloudvm",
    )
