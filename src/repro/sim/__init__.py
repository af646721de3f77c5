"""Deterministic discrete-event simulation engine.

The engine is the substrate every simulated component (OpenMP threads, MPI
ranks, the network, OS noise daemons) runs on.  It is intentionally small:

* :class:`~repro.sim.engine.SimulationEngine` — the event loop.
* :class:`~repro.sim.process.SimProcess` — a generator-based coroutine
  scheduled on the engine; it yields :class:`~repro.sim.events.Delay`,
  :class:`~repro.sim.events.WaitEvent` or :class:`~repro.sim.events.Signal`
  commands.
* :class:`~repro.sim.events.SimEvent` — a one-shot event processes can wait
  on (used to build barriers, message arrival notifications, ...).
* :class:`~repro.sim.random.RandomStreams` — hierarchical, reproducible
  ``numpy`` RNG streams keyed by component names.

Time is a ``float`` number of **seconds** since the start of the simulation.
Determinism: with identical seeds and identical process creation order every
run produces bit-identical event traces.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.sim.engine": ("SimulationEngine",),
    "repro.sim.events": ("Delay", "SimEvent", "Signal", "WaitEvent"),
    "repro.sim.process": ("SimProcess",),
    "repro.sim.random": ("RandomStreams",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
