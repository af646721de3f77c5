"""The discrete-event simulation engine.

The engine owns a priority queue of timestamped callbacks and the notion of
"now".  Simulated processes (:class:`repro.sim.process.SimProcess`) are
generator coroutines driven by the engine; everything else (barriers, network
transfers, OS noise) is expressed through scheduled callbacks and
:class:`~repro.sim.events.SimEvent` objects.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.sim.events import Delay, SimEvent, Signal, WaitEvent, _ScheduledCallback
from repro.sim.process import SimProcess


class SimulationEngine:
    """Deterministic event loop for the simulated machine.

    Parameters
    ----------
    trace:
        When ``True`` the engine records ``(time, label)`` tuples for every
        process resumption; useful in tests and debugging, off by default to
        keep large campaigns fast.
    """

    def __init__(self, *, trace: bool = False) -> None:
        self._now = 0.0
        self._queue: List[_ScheduledCallback] = []
        self._seq = 0
        self._processes: List[SimProcess] = []
        self._running = False
        self.trace_enabled = trace
        self.trace: List[tuple] = []

    # ------------------------------------------------------------------
    # time & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> _ScheduledCallback:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the heap entry, whose ``cancelled`` flag may be set to drop
        the callback before it fires.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        if not math.isfinite(delay):
            raise ValueError(f"non-finite delay: {delay}")
        entry = _ScheduledCallback(self._now + delay, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._queue, entry)
        return entry

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(
        self,
        generator: Generator[Any, Any, Any],
        *,
        name: str = "process",
        start_delay: float = 0.0,
    ) -> SimProcess:
        """Create a :class:`SimProcess` from ``generator`` and start it.

        The process body runs lazily: its first segment executes when the
        event loop reaches ``start_delay``.
        """
        process = SimProcess(self, generator, name=name)
        self._processes.append(process)
        self.schedule(start_delay, process._step_initial)
        return process

    @property
    def processes(self) -> List[SimProcess]:
        """All processes ever spawned on this engine."""
        return list(self._processes)

    # ------------------------------------------------------------------
    # event helpers
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create a fresh :class:`SimEvent` bound to this engine."""
        return SimEvent(name)

    def trigger(self, event: SimEvent, value: Any = None) -> None:
        """Trigger ``event`` now (records the trigger time)."""
        event.trigger(value, time=self._now)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once simulation time would exceed ``until``.  ``None`` runs
            until the queue drains.
        max_events:
            Safety valve against runaway simulations.

        Returns
        -------
        float
            The simulation time when the loop stopped.
        """
        if self._running:
            raise RuntimeError("engine is already running")
        self._running = True
        try:
            count = 0
            while self._queue:
                entry = self._queue[0]
                if entry.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and entry.time > until:
                    self._now = until
                    break
                heapq.heappop(self._queue)
                if entry.time < self._now - 1e-15:
                    raise RuntimeError(
                        "event queue corrupted: time went backwards "
                        f"({entry.time} < {self._now})"
                    )
                self._now = max(self._now, entry.time)
                entry.callback()
                count += 1
                if count > max_events:
                    raise RuntimeError(
                        f"exceeded max_events={max_events}; "
                        "likely a livelock in a simulated component"
                    )
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def run_until_complete(self, processes: Iterable[SimProcess]) -> float:
        """Run until every process in ``processes`` has finished."""
        targets = list(processes)
        self.run()
        unfinished = [p for p in targets if not p.finished]
        if unfinished:
            names = ", ".join(p.name for p in unfinished)
            raise RuntimeError(
                f"event queue drained but processes still blocked: {names} "
                "(deadlock in simulated synchronisation)"
            )
        return self._now

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_events(self) -> int:
        """Number of (non-cancelled) callbacks still queued."""
        return sum(1 for entry in self._queue if not entry.cancelled)

    def record_trace(self, *items: Any) -> None:
        """Append a trace record ``(now, *items)`` if tracing is enabled."""
        if self.trace_enabled:
            self.trace.append((self._now, *items))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationEngine(now={self._now:.9f}, "
            f"pending={self.pending_events()}, processes={len(self._processes)})"
        )
