"""The discrete-event kernel the event oracle runs on.

Simulated threads are generator coroutines (:class:`SimProcess`) driven by
one event loop (:class:`SimulationEngine`).  A process yields
:class:`Delay` to spend simulated time or :class:`WaitEvent` to block on a
one-shot :class:`SimEvent`; :class:`Barrier` builds Listing 1's
``#pragma omp barrier`` from those two.

Time is a ``float`` number of seconds.  Callbacks due at the same time run
in the order they were scheduled, so processes spawned in the same order
replay the same event order, and the same seeds give bit-identical runs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple


class SimEvent:
    """A one-shot event processes can wait on.

    Once :meth:`trigger` is called it stays triggered and keeps its
    ``value`` and ``trigger_time``; waiting on it never blocks again.
    """

    __slots__ = ("name", "triggered", "value", "trigger_time", "_waiters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.triggered = False
        self.value: Any = None
        self.trigger_time: Optional[float] = None
        self._waiters: List[Callable[[Any], None]] = []

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(value)`` when the event triggers (the engine's
        hook; processes yield :class:`WaitEvent` instead)."""
        if self.triggered:
            raise RuntimeError(f"cannot add waiter to already-triggered event {self.name!r}")
        self._waiters.append(callback)

    def trigger(self, value: Any = None, *, time: Optional[float] = None) -> None:
        """Trigger the event, waking every registered waiter exactly once."""
        if self.triggered:
            raise RuntimeError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        self.trigger_time = time
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback(value)


@dataclass(frozen=True)
class Delay:
    """Command: suspend the yielding process for ``duration`` seconds."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative delay: {self.duration}")


@dataclass(frozen=True)
class WaitEvent:
    """Command: suspend the yielding process until ``event`` triggers; the
    ``yield`` evaluates to the event's value."""

    event: SimEvent


class SimProcess:
    """A generator coroutine scheduled on a :class:`SimulationEngine`;
    ``finished`` once it returns, with its return value in ``result``."""

    __slots__ = ("engine", "name", "_generator", "finished", "result")

    def __init__(
        self, engine: "SimulationEngine", generator: Generator[Any, Any, Any], name: str
    ) -> None:
        self.engine = engine
        self.name = name
        self._generator = generator
        self.finished = False
        self.result: Any = None

    def _step(self, send_value: Any = None) -> None:
        """Advance the generator by one segment and act on its command."""
        try:
            command = self._generator.send(send_value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            return
        engine = self.engine
        if isinstance(command, Delay):
            engine.schedule(command.duration, self._step)
        elif isinstance(command, WaitEvent):
            event = command.event
            if event.triggered:
                # resume on the next tick at the same time, behind the
                # processes already due now
                engine.schedule(0.0, lambda: self._step(event.value))
            else:
                event.add_waiter(
                    lambda value: engine.schedule(0.0, lambda: self._step(value))
                )
        else:
            raise TypeError(f"process {self.name!r} yielded unsupported command {command!r}")


class SimulationEngine:
    """The event loop: a heap of ``(time, sequence, callback)`` entries and
    the current simulation time ``now``."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        if not math.isfinite(delay):
            raise ValueError(f"non-finite delay: {delay}")
        heapq.heappush(self._queue, (self.now + delay, self._seq, callback))
        self._seq += 1

    def spawn(self, generator: Generator[Any, Any, Any], *, name: str = "process") -> SimProcess:
        """Start a process whose body is ``generator``; its first segment
        runs when the loop reaches the current time."""
        process = SimProcess(self, generator, name)
        self.schedule(0.0, process._step)
        return process

    def run(self, max_events: int = 50_000_000) -> float:
        """Run callbacks until the queue drains; returns the final time.

        More than ``max_events`` callbacks is a ``RuntimeError`` (a
        livelock in a simulated component)."""
        count = 0
        while self._queue:
            self.now, _, callback = heapq.heappop(self._queue)
            callback()
            count += 1
            if count > max_events:
                raise RuntimeError(
                    f"exceeded max_events={max_events}; "
                    "likely a livelock in a simulated component"
                )
        return self.now

    def run_until_complete(self, processes: Iterable[SimProcess]) -> float:
        """Run the loop dry; every one of ``processes`` must have finished."""
        targets = list(processes)
        self.run()
        unfinished = [process.name for process in targets if not process.finished]
        if unfinished:
            raise RuntimeError(
                f"event queue drained but processes still blocked: {', '.join(unfinished)} "
                "(deadlock in simulated synchronisation)"
            )
        return self.now


class Barrier:
    """A cyclic barrier for ``n_threads`` simulated threads; inside a
    process body, ``generation = yield from barrier.wait()``.

    The last arrival releases everyone at its own time and rolls the
    barrier over to the next generation.
    """

    def __init__(self, n_threads: int) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.n_threads = n_threads
        #: number of completed barrier episodes
        self.generation = 0
        self._arrived = 0
        self._release = SimEvent("barrier.gen0")

    def wait(self) -> Generator:
        generation, release = self.generation, self._release
        self._arrived += 1
        if self._arrived == self.n_threads:
            self.generation += 1
            self._arrived = 0
            self._release = SimEvent(f"barrier.gen{self.generation}")
            release.trigger(generation)
        else:
            yield WaitEvent(release)
        return generation
