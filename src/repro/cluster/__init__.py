"""Machine model: cluster topology, per-core clocks and OS noise.

The paper's experiments ran on the Manzano cluster (two 24-core Intel Cascade
Lake sockets per node, 2.90 GHz, Omni-Path interconnect).  This subpackage
models the parts of that platform that shape per-thread timing measurements:

* :class:`~repro.cluster.topology.Cluster` /
  :class:`~repro.cluster.topology.Node` /
  :class:`~repro.cluster.topology.Core` — the physical layout, including
  the two-level switch tree whose hop counts the network model uses.
* :class:`~repro.cluster.clock.ClockSpec` — the per-core
  ``clock_gettime(CLOCK_MONOTONIC)`` population: monotonic on one core, *not*
  synchronised across cores/sockets (no ``tsc_reliable``), which is exactly
  why the paper measures elapsed compute time instead of comparing raw
  timestamps.
* :class:`~repro.cluster.noise.OSNoiseModel` — periodic daemon activity plus
  random interrupts, after Morari et al.'s quantitative OS-noise analysis
  (the paper's cited source of laggard threads).
* :class:`~repro.cluster.config.MachineConfig` — presets, including
  :func:`~repro.cluster.config.manzano`.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.cluster.clock": ("ClockSpec",),
    "repro.cluster.config": ("MachineConfig", "laptop", "manzano"),
    "repro.cluster.noise": ("NoiseSourceSpec", "NoiseSpec", "OSNoiseModel"),
    "repro.cluster.topology": ("Cluster", "Core", "Node", "Socket"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
