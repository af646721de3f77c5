"""Reproducible random streams for the samplers.

* :class:`~repro.sim.random.RandomStreams` — hierarchical, reproducible
  ``numpy`` RNG streams keyed by component names, so adding a component
  never perturbs the draws of the others and one root seed replays a whole
  campaign bit for bit.

The samplers evaluate the simulated machine in closed form; the
discrete-event kernel the test tree's ``event`` oracle runs on lives under
``tests/oracles/``.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.sim.random": ("RandomStreams",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
