"""Machine model: the node layout and OS noise.

The paper's experiments ran on the Manzano cluster (two 24-core Intel Cascade
Lake sockets per node, 2.90 GHz, Omni-Path interconnect).  This subpackage
models the parts of that platform that shape per-thread compute times:

* :class:`~repro.cluster.noise.OSNoiseModel` — periodic daemon activity plus
  random interrupts, after Morari et al.'s quantitative OS-noise analysis
  (the paper's cited source of laggard threads).
* :class:`~repro.cluster.config.MachineConfig` — the node layout and the
  noise population, with presets including
  :func:`~repro.cluster.config.manzano`.

The paper derives compute time (exit − enter on the same core) because
per-core ``CLOCK_MONOTONIC`` readings are not comparable across cores; the
samplers draw compute times directly, so no clocks are modelled here (the
test tree's ``event`` oracle keeps per-core clocks).
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.cluster.config": ("MachineConfig", "laptop", "manzano"),
    "repro.cluster.noise": ("NoiseSourceSpec", "NoiseSpec", "OSNoiseModel"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
