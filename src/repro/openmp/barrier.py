"""A reusable barrier for simulated thread teams.

The instrumentation pattern in the paper's Listing 1 brackets the timed loop
with two ``#pragma omp barrier`` directives: one *before* reading the start
timestamps (so all threads start together — this is what makes elapsed time an
estimate of arrival time) and the implicit one at the end of the parallel
region.  :class:`Barrier` provides those semantics on the event engine and
also records, per generation, when each participant arrived — which tests use
to verify barrier-induced idle time equals the reclaimable-time metric.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.sim.engine import SimulationEngine
from repro.sim.events import SimEvent, WaitEvent


class Barrier:
    """A cyclic barrier for ``n_threads`` simulated threads.

    Usage inside a process generator::

        yield from barrier.wait(thread_id)
    """

    def __init__(self, engine: SimulationEngine, n_threads: int, name: str = "barrier"):
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.engine = engine
        self.n_threads = n_threads
        self.name = name
        self._generation = 0
        self._arrived = 0
        self._release: SimEvent = engine.event(f"{name}.gen0")
        #: arrival times per generation: ``arrival_times[gen][thread] = t``
        self.arrival_times: List[Dict[int, float]] = [{}]
        #: release times per generation
        self.release_times: List[Optional[float]] = [None]

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Number of completed barrier episodes."""
        return self._generation

    def wait(self, thread_id: int) -> Generator:
        """Generator to be delegated to (``yield from``) by a thread process."""
        generation = self._generation
        self.arrival_times[generation][thread_id] = self.engine.now
        self._arrived += 1
        release = self._release
        if self._arrived == self.n_threads:
            # last arrival releases everyone and rolls the barrier over
            self.release_times[generation] = self.engine.now
            self._generation += 1
            self._arrived = 0
            self._release = self.engine.event(f"{self.name}.gen{self._generation}")
            self.arrival_times.append({})
            self.release_times.append(None)
            release.trigger(generation, time=self.engine.now)
        else:
            yield WaitEvent(release)
        return generation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Barrier({self.name!r}, n={self.n_threads}, "
            f"generation={self._generation}, waiting={self._arrived})"
        )
