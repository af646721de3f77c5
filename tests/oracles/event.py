"""The discrete-event reference sampler, registered as the ``"event"``
backend.

It runs the paper's Listing 1 on a simulated machine: every OpenMP thread
is a process on the discrete-event kernel (:mod:`oracles.engine`), the
entry and exit barriers, each chunk of loop work and every OS-noise
preemption happen as events, and each thread reads its start and end
timestamps from its own core's monotonic clock.  Those clocks are not
synchronised across cores (§3.1), so only a thread's own elapsed time, the
derived compute time, is meaningful.

The production ``"campaign"`` backend samples the same work, jitter and
noise populations in closed form, so the two agree in distribution, not
bit-for-bit: the agreement tests compare them.  The pieces here exist only
for that comparison:

* :class:`Core` / :func:`place_processes` — the cores of a machine's
  layout and the ranks' placement on them;
* :class:`ClockSpec` / :class:`MonotonicClock` / :class:`ClockDomain` —
  per-core clocks drawn from each machine's clock population
  (:func:`clock_spec`);
* :class:`WindowedNoiseModel` — each core's noise as one timeline of
  discrete events (:func:`events_in` of every source), drawn a window at a
  time;
* :class:`ThreadTeam` / :class:`OpenMPRuntime` — one process's thread team
  and its ``parallel for nowait`` regions on the event engine;
* :class:`EventBackend` — one unit of work per trial, whose threads run
  the applications' per-iteration models (:mod:`oracles.models`).

Importing this module registers the backend (``tests/conftest.py`` and
``benchmarks/conftest.py`` do).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.config import MachineConfig
from repro.cluster.noise import OSNoiseModel
from repro.core.aggregation import ColumnBlock, campaign_block
from repro.core.timing import TimingDataset
from repro.experiments.backends import CampaignBackend, build_application, register_backend
from repro.openmp.schedule import LoopSchedule, StaticSchedule
from repro.scenarios.sources import (
    CronBurstSource,
    NetworkStormSource,
    NoiseSource,
    ParetoInterruptSource,
    PeriodicDaemonSource,
    PoissonInterruptSource,
    SilentSource,
)
from repro.sim.random import RandomStreams

from oracles.engine import Barrier, Delay, SimulationEngine
from oracles.models import iteration_model
from oracles.schedule import static_assignment

CoreKey = Tuple[int, int, int]


# ----------------------------------------------------------------------
# the machine's cores
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Core:
    """One core, identified by ``(node_id, socket_id, core_id)``; it owns a
    thread's clock and receives that core's OS noise."""

    node_id: int
    socket_id: int
    core_id: int

    @property
    def global_id(self) -> CoreKey:
        return (self.node_id, self.socket_id, self.core_id)


def place_processes(
    machine: MachineConfig, n_processes: int, threads_per_process: int
) -> List[List[Core]]:
    """Each process's cores, filling ``machine``'s nodes in order.

    Mirrors a ``--map-by node --bind-to core`` launch: each process gets
    ``threads_per_process`` consecutive cores (socket-major) of the first
    node with that many left.
    """
    if n_processes < 1 or threads_per_process < 1:
        raise ValueError("n_processes and threads_per_process must be >= 1")
    per_node = machine.cores_per_node
    placements: List[List[Core]] = []
    node, first = 0, 0
    for _ in range(n_processes):
        if first + threads_per_process > per_node:
            node, first = node + 1, 0
        if node >= machine.n_nodes or threads_per_process > per_node:
            raise ValueError(
                f"cannot place {n_processes} processes × {threads_per_process} threads "
                f"on {machine.n_nodes} node(s) of {per_node} cores"
            )
        placements.append(
            [
                Core(node, *divmod(core, machine.cores_per_socket))
                for core in range(first, first + threads_per_process)
            ]
        )
        first += threads_per_process
    return placements


# ----------------------------------------------------------------------
# per-core monotonic clocks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClockSpec:
    """A machine's per-core ``CLOCK_MONOTONIC`` population.

    Every core's clock has a private epoch offset drawn uniformly from
    ``[0, max_offset_s]``, a relative drift of ``drift_ppm`` parts per
    million (standard deviation) and a uniform read jitter of
    ``±read_jitter_ns``.  With ``tsc_reliable`` every core shares one
    offset and has no drift (a synchronised, invariant TSC); the paper's
    platform lacks that flag, which is why it derives compute times.
    """

    max_offset_s: float = 1.0e6
    drift_ppm: float = 2.0
    read_jitter_ns: float = 15.0
    tsc_reliable: bool = False

    def __post_init__(self) -> None:
        if self.max_offset_s < 0 or self.drift_ppm < 0 or self.read_jitter_ns < 0:
            raise ValueError("ClockSpec parameters must be non-negative")


#: the clock populations of the machines whose clocks are not the default
#: :class:`ClockSpec`: a synchronised TSC, and migrated cloud guests
CLOCK_SPECS: Dict[str, ClockSpec] = {
    "fatnode": ClockSpec(tsc_reliable=True, read_jitter_ns=10.0),
    "cloudvm": ClockSpec(max_offset_s=1.0e7, drift_ppm=40.0, read_jitter_ns=60.0),
}


def clock_spec(machine: MachineConfig) -> ClockSpec:
    """The clock population of ``machine`` (by its registered name)."""
    return CLOCK_SPECS.get(machine.name, ClockSpec())


class MonotonicClock:
    """The ``CLOCK_MONOTONIC`` source of one core: a private epoch offset,
    a relative drift and bounded read jitter; reads on one core never go
    backwards, even when the jitter is negative."""

    def __init__(
        self,
        offset_s: float = 0.0,
        drift: float = 0.0,
        read_jitter_ns: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.offset_s = float(offset_s)
        self.drift = float(drift)
        self.read_jitter_ns = float(read_jitter_ns)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._last_reading = -np.inf

    def read_ns(self, true_time_s: float) -> int:
        """Read the clock at physical time ``true_time_s``, in nanoseconds."""
        raw = (self.offset_s + true_time_s * (1.0 + self.drift)) * 1.0e9
        if self.read_jitter_ns > 0.0:
            raw += self._rng.uniform(-self.read_jitter_ns, self.read_jitter_ns)
        reading = max(raw, self._last_reading)
        self._last_reading = reading
        return int(round(reading))


class ClockDomain:
    """The per-core clocks of a machine, drawn from a :class:`ClockSpec` as
    cores are first read (with ``tsc_reliable`` every core shares one
    offset and has no drift)."""

    def __init__(self, spec: ClockSpec, rng: Optional[np.random.Generator] = None) -> None:
        self.spec = spec
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._clocks: Dict[CoreKey, MonotonicClock] = {}
        self._shared_offset = float(self._rng.uniform(0.0, spec.max_offset_s))

    def clock_for(self, core: Core) -> MonotonicClock:
        """The (cached) clock of ``core``."""
        key = core.global_id
        if key not in self._clocks:
            if self.spec.tsc_reliable:
                offset, drift = self._shared_offset, 0.0
            else:
                offset = float(self._rng.uniform(0.0, self.spec.max_offset_s))
                drift = float(self._rng.normal(0.0, self.spec.drift_ppm * 1e-6))
            self._clocks[key] = MonotonicClock(
                offset_s=offset,
                drift=drift,
                read_jitter_ns=self.spec.read_jitter_ns,
                rng=np.random.default_rng(self._rng.integers(0, 2**63 - 1)),
            )
        return self._clocks[key]

    def cross_core_comparable(self) -> bool:
        """Whether raw timestamps may be compared across cores."""
        return self.spec.tsc_reliable

    def __len__(self) -> int:
        return len(self._clocks)


# ----------------------------------------------------------------------
# noise sources as discrete events
# ----------------------------------------------------------------------
class NoiseEvent(NamedTuple):
    """One noise occurrence on a core: ``duration`` seconds at ``start``."""

    start: float
    duration: float


#: source class -> (its events in a window, its look-ahead beyond a window)
_EVENT_MODELS: Dict[type, Tuple[Callable, Callable[[NoiseSource], float]]] = {}


def _event_model(cls: type, horizon: Callable[[NoiseSource], float]):
    def register(events: Callable) -> Callable:
        _EVENT_MODELS[cls] = (events, horizon)
        return events

    return register


def _model_of(source: NoiseSource) -> Tuple[Callable, Callable]:
    for cls in type(source).__mro__:
        if cls in _EVENT_MODELS:
            return _EVENT_MODELS[cls]
    raise TypeError(f"no discrete-event model for noise source {source.kind!r}")


def events_in(
    source: NoiseSource,
    core_key: CoreKey,
    start_s: float,
    end_s: float,
    rng: np.random.Generator,
    phases: Dict[CoreKey, float],
) -> List[NoiseEvent]:
    """``source``'s noise events on ``core_key`` in ``[start_s, end_s)``.

    ``phases`` holds the source's per-core phases (periodic sources draw a
    core's phase from ``rng`` on its first query)."""
    return _model_of(source)[0](source, core_key, start_s, end_s, rng, phases)


def horizon_s(source: NoiseSource) -> float:
    """Look-ahead ``source`` needs beyond a compute window."""
    return _model_of(source)[1](source)


def _phase(phases, core_key, period_s: float, rng) -> float:
    if core_key not in phases:
        phases[core_key] = float(rng.uniform(0.0, period_s)) if period_s > 0 else 0.0
    return phases[core_key]


@_event_model(PeriodicDaemonSource, horizon=lambda source: source.period_s)
def _daemon_events(source, core_key, start_s, end_s, rng, phases):
    if source.period_s <= 0 or source.duration_s <= 0:
        return []
    phase = _phase(phases, core_key, source.period_s, rng)
    tick = phase + np.ceil((start_s - phase) / source.period_s) * source.period_s
    events = []
    while tick < end_s:
        events.append(NoiseEvent(tick, source.duration_s))
        tick += source.period_s
    return events


def _poisson_events(start_s, end_s, rate_hz, rng, durations):
    window = end_s - start_s
    n = int(rng.poisson(rate_hz * window))
    if n == 0:
        return []
    starts = start_s + rng.uniform(0.0, window, size=n)
    return [NoiseEvent(float(s), float(d)) for s, d in zip(starts, durations(n))]


@_event_model(PoissonInterruptSource, horizon=lambda source: source.max_s)
def _interrupt_events(source, core_key, start_s, end_s, rng, phases):
    if source.rate_hz <= 0 or source.mean_s <= 0:
        return []
    return _poisson_events(
        start_s,
        end_s,
        source.rate_hz,
        rng,
        lambda n: np.minimum(rng.exponential(source.mean_s, size=n), source.max_s),
    )


@_event_model(ParetoInterruptSource, horizon=lambda source: source.max_s)
def _pareto_events(source, core_key, start_s, end_s, rng, phases):
    if source.rate_hz <= 0 or source.scale_s <= 0:
        return []
    return _poisson_events(
        start_s, end_s, source.rate_hz, rng, lambda n: source._durations(n, rng)
    )


@_event_model(CronBurstSource, horizon=lambda source: source.period_s + source.max_s)
def _cron_events(source, core_key, start_s, end_s, rng, phases):
    if source.period_s <= 0 or source.burst_mean <= 0 or source.duration_s <= 0:
        return []
    phase = _phase(phases, core_key, source.period_s, rng)
    # start one period early: a burst fired just before the window can
    # still have jobs landing inside it
    first = np.ceil((start_s - phase) / source.period_s) - 1.0
    tick = phase + first * source.period_s
    events = []
    while tick < end_s:
        n = int(rng.poisson(source.burst_mean))
        cursor = tick
        for duration in np.minimum(
            rng.exponential(source.duration_s, size=n), source.max_s
        ):
            if cursor >= end_s:
                break
            if cursor >= start_s:
                events.append(NoiseEvent(float(cursor), float(duration)))
            cursor += float(duration)
        tick += source.period_s
    return events


@_event_model(NetworkStormSource, horizon=lambda source: source.span_s + source.packet_s)
def _storm_events(source, core_key, start_s, end_s, rng, phases):
    if source.storm_rate_hz <= 0 or source.packets_mean <= 0 or source.packet_s <= 0:
        return []
    # widen the arrival window by one span so storms that broke just before
    # start_s still contribute their in-window packets
    window = end_s - start_s + source.span_s
    events = []
    for _ in range(int(rng.poisson(source.storm_rate_hz * window))):
        storm_start = start_s - source.span_s + float(rng.uniform(0.0, window))
        n_packets = int(rng.poisson(source.packets_mean))
        if n_packets == 0:
            continue
        offsets = np.sort(rng.uniform(0.0, source.span_s, size=n_packets))
        events.extend(
            NoiseEvent(float(t), source.packet_s)
            for t in storm_start + offsets
            if start_s <= t < end_s
        )
    return events


@_event_model(SilentSource, horizon=lambda source: 0.0)
def _silent_events(source, core_key, start_s, end_s, rng, phases):
    return []


class WindowedNoiseModel(OSNoiseModel):
    """OS noise as one pre-generated event timeline per core.

    The first query past a core's drawn horizon draws every source's events
    for the next whole ``window_s`` in one :func:`events_in` call per
    source; later queries are binary searches over the cached arrays.  So a
    core's noise is one consistent realisation: overlapping queries see the
    same events.
    """

    def __init__(
        self,
        spec=None,
        rng: Optional[np.random.Generator] = None,
        *,
        sources: Optional[Sequence[NoiseSource]] = None,
        window_s: float = 1.0,
    ) -> None:
        super().__init__(spec, rng, sources=sources)
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = float(window_s)
        #: core key -> [event starts, event durations, drawn-until time]
        self._timelines: Dict[CoreKey, list] = {}
        self._phases: List[Dict[CoreKey, float]] = [{} for _ in self.sources]

    @property
    def horizon_s(self) -> float:
        """Look-ahead the composed sources need beyond a compute window."""
        return float(sum(horizon_s(source) for source in self.sources))

    def jittered_compute(
        self, work_s: float, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Apply multiplicative execution jitter to a pure compute time."""
        if work_s < 0:
            raise ValueError("work_s must be non-negative")
        if not self.spec.enabled or self.spec.jitter_fraction <= 0 or work_s == 0:
            return work_s
        gen = rng if rng is not None else self._rng
        return work_s * max(float(gen.normal(1.0, self.spec.jitter_fraction)), 0.5)

    def _timeline(self, core: Core, end_s: float) -> list:
        """``core``'s timeline, drawn whole windows at a time to ``end_s``."""
        timeline = self._timelines.setdefault(
            core.global_id, [np.empty(0), np.empty(0), 0.0]
        )
        while timeline[2] < end_s:
            window_start, window_end = timeline[2], timeline[2] + self.window_s
            events: List[NoiseEvent] = []
            for source, phases in zip(self.sources, self._phases):
                events.extend(
                    events_in(
                        source, core.global_id, window_start, window_end, self._rng, phases
                    )
                )
            if events:
                events.sort(key=lambda ev: ev.start)
                timeline[0] = np.concatenate((timeline[0], [ev.start for ev in events]))
                timeline[1] = np.concatenate((timeline[1], [ev.duration for ev in events]))
            timeline[2] = window_end
        return timeline

    def events_in(self, core: Core, start_s: float, end_s: float) -> List[NoiseEvent]:
        """The events on ``core`` starting in ``[start_s, end_s)``."""
        if not self.spec.enabled or end_s <= start_s:
            return []
        starts, durations, _ = self._timeline(core, end_s)
        lo, hi = np.searchsorted(starts, [start_s, end_s], side="left")
        return [
            NoiseEvent(float(s), float(d)) for s, d in zip(starts[lo:hi], durations[lo:hi])
        ]

    def delay_over(self, core: Core, start_s: float, work_s: float) -> float:
        """Extra wall time noise adds to ``work_s`` of compute from ``start_s``.

        Every event starting inside the (continuously extended) execution
        window preempts the thread for its full duration, considering
        events up to a bounded look-ahead (``work_s * 1.5 + horizon_s``):
        that also ends the walk for populations whose duty cycle reaches 1.
        """
        if work_s < 0:
            raise ValueError("work_s must be non-negative")
        if not self.spec.enabled or work_s == 0.0:
            return 0.0
        end = start_s + work_s
        horizon_end = start_s + work_s * 1.5 + self.horizon_s
        starts, durations, _ = self._timeline(core, horizon_end)
        extra = 0.0
        index = int(np.searchsorted(starts, start_s, side="left"))
        while index < len(starts):
            start = float(starts[index])
            if start >= end or start >= horizon_end:
                break
            duration = float(durations[index])
            end += duration
            extra += duration
            index += 1
        return extra


# ----------------------------------------------------------------------
# thread teams and instrumented regions on the event engine
# ----------------------------------------------------------------------
@dataclass
class ThreadExecution:
    """What one thread did in one region.  ``start_time`` / ``end_time``
    are physical times (s); ``start_ns`` / ``end_ns`` are the raw readings
    of the thread's core clock, comparable only within the thread."""

    thread_id: int
    items: np.ndarray
    work_s: float
    noise_s: float
    start_time: float
    end_time: float
    start_ns: int
    end_ns: int

    @property
    def wall_s(self) -> float:
        return self.end_time - self.start_time

    @property
    def compute_time_s(self) -> float:
        """The paper's derived metric: elapsed time on the thread's clock."""
        return (self.end_ns - self.start_ns) * 1.0e-9


@dataclass
class LoopExecution:
    """Every thread's execution of one region instance (one iteration)."""

    region: str
    iteration: int
    threads: List[ThreadExecution] = field(default_factory=list)
    region_start: float = 0.0
    region_end: float = 0.0

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    def compute_times_s(self) -> np.ndarray:
        return np.array([t.compute_time_s for t in self.threads])

    def wall_times_s(self) -> np.ndarray:
        return np.array([t.wall_s for t in self.threads])

    def arrival_spread_s(self) -> float:
        walls = self.wall_times_s()
        return float(walls.max() - walls.min())

    def reclaimable_time_s(self) -> float:
        walls = self.wall_times_s()
        return float(np.sum(walls.max() - walls))


@dataclass
class TeamThread:
    """One OpenMP thread: its index in the team, its core and that core's clock."""

    thread_id: int
    core: Core
    clock: MonotonicClock


class ThreadTeam:
    """The OpenMP thread team of one process: one thread per core, each
    reading its core's clock; ``noise`` preempts them and ``rng`` draws
    their execution jitter."""

    def __init__(
        self,
        cores: Sequence[Core],
        clock_domain: ClockDomain,
        noise: WindowedNoiseModel,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if len(cores) < 1:
            raise ValueError("a thread team needs at least one core")
        self.cores = list(cores)
        self.noise = noise
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.threads = [
            TeamThread(t, core, clock_domain.clock_for(core))
            for t, core in enumerate(self.cores)
        ]

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    def spans_sockets(self) -> bool:
        return len({core.socket_id for core in self.cores}) > 1


class OpenMPRuntime:
    """Runs one team's instrumented ``parallel for nowait`` regions on the
    event engine, one after another.  ``fork_overhead_s`` /
    ``join_overhead_s`` separate consecutive regions, as libgomp's do."""

    def __init__(
        self,
        team: ThreadTeam,
        *,
        fork_overhead_s: float = 2.0e-6,
        join_overhead_s: float = 1.0e-6,
    ) -> None:
        self.team = team
        self.engine = SimulationEngine()
        self.fork_overhead_s = fork_overhead_s
        self.join_overhead_s = join_overhead_s
        #: physical time at which the next region forks
        self.current_time = 0.0

    def run_region(
        self,
        item_costs: Sequence[float],
        *,
        schedule: Optional[LoopSchedule] = None,
        region: str = "compute",
        iteration: int = 0,
    ) -> LoopExecution:
        """Execute one region whose loop items cost ``item_costs`` seconds
        each, under ``schedule`` (default ``static``)."""
        schedule = schedule if schedule is not None else StaticSchedule()
        costs = np.asarray(item_costs, dtype=np.float64)
        engine, team, n_threads = self.engine, self.team, self.team.n_threads
        entry_barrier = Barrier(n_threads)
        exit_barrier = Barrier(n_threads)
        assigned = static_assignment(schedule, len(costs), n_threads)
        cursor = [0]
        records: List[Optional[ThreadExecution]] = [None] * n_threads
        region_start = self.current_time + self.fork_overhead_s

        def next_items(chunks: Optional[list]):
            if chunks is not None:
                return chunks.pop(0) if chunks else None
            if cursor[0] >= len(costs):
                return None
            chunk_size = getattr(schedule, "chunk", 1) or 1
            items = np.arange(cursor[0], min(cursor[0] + chunk_size, len(costs)))
            cursor[0] += len(items)
            return items

        def thread_body(thread_id: int) -> Generator:
            thread = team.threads[thread_id]
            if engine.now < region_start:
                yield Delay(region_start - engine.now)
            yield from entry_barrier.wait()
            start_time = engine.now
            start_ns = thread.clock.read_ns(start_time)
            work_total = noise_total = 0.0
            executed: List[np.ndarray] = []
            chunks = None
            if assigned is not None:
                mine = assigned[thread_id]
                chunks = [mine] if len(mine) else []
            while (items := next_items(chunks)) is not None:
                work = float(costs[items].sum())
                jittered = team.noise.jittered_compute(work, rng=team.rng)
                noise = team.noise.delay_over(thread.core, engine.now, jittered)
                executed.append(items)
                work_total += work
                noise_total += (jittered - work) + noise
                if jittered + noise > 0:
                    yield Delay(jittered + noise)
            records[thread_id] = ThreadExecution(
                thread_id=thread_id,
                items=np.concatenate(executed) if executed else np.empty(0, dtype=np.int64),
                work_s=work_total,
                noise_s=noise_total,
                start_time=start_time,
                end_time=engine.now,
                start_ns=start_ns,
                end_ns=thread.clock.read_ns(engine.now),
            )
            yield from exit_barrier.wait()

        engine.run_until_complete(
            [
                engine.spawn(thread_body(t), name=f"{region}.it{iteration}.t{t}")
                for t in range(n_threads)
            ]
        )
        execution = LoopExecution(region, iteration, list(records), region_start)
        execution.region_end = max(record.end_time for record in execution.threads)
        self.current_time = execution.region_end + self.join_overhead_s
        return execution


# ----------------------------------------------------------------------
# the backend
# ----------------------------------------------------------------------
def record_trial(config, trial: int) -> TimingDataset:
    """One trial of ``config`` measured on the event engine, with each
    thread's raw clock readings (``start_ns`` / ``end_ns``).

    The trial's clock domain draws each core's clock as a process first
    touches it, so a trial's processes run in serial order in one call.
    """
    streams = RandomStreams(config.seed)
    app = build_application(config)
    model = iteration_model(app)
    placements = place_processes(config.machine, config.processes, config.threads)
    clock_domain = ClockDomain(clock_spec(config.machine), streams.get("clocks", trial))
    # one (process, iteration, thread, start_ns, end_ns) row per sample
    readings: List[Tuple[int, int, int, int, int]] = []
    for process in range(config.processes):
        work_rng = streams.get(app.name, "work", trial, process)
        noise = WindowedNoiseModel(
            config.machine.noise_spec, streams.get(app.name, "noise", trial, process)
        )
        team_rng = streams.get(app.name, "team", trial, process)
        model.begin(process, work_rng)
        runtime = OpenMPRuntime(
            ThreadTeam(placements[process], clock_domain, noise, rng=team_rng)
        )
        for iteration in range(config.iterations):
            costs = model.item_costs(process, iteration, work_rng)
            delays = model.application_delays(process, iteration, work_rng)
            execution = runtime.run_region(
                costs, schedule=app.config.schedule, region=app.region, iteration=iteration
            )
            # application-level delays act after the loop body (e.g. a
            # straggler thread's extra stall): they stretch the exit reading
            readings.extend(
                (
                    process,
                    iteration,
                    thread.thread_id,
                    thread.start_ns,
                    thread.end_ns + int(round(delays[thread.thread_id] * 1e9)),
                )
                for thread in execution.threads
            )
    process, iteration, thread, start_ns, end_ns = (
        np.array(column, dtype=np.int64) for column in zip(*readings)
    )
    columns = {
        "trial": np.full(len(readings), trial),
        "process": process,
        "iteration": iteration,
        "thread": thread,
        "start_ns": start_ns,
        "end_ns": end_ns,
        # elapsed time on the thread's own clock, the paper's derived metric
        "compute_time_s": (end_ns - start_ns) * 1.0e-9,
    }
    return TimingDataset(columns, {"application": app.name, "region": app.region})


@register_backend("event")
class EventBackend(CampaignBackend):
    """Discrete-event execution on the simulated OpenMP runtime, one unit of
    work per trial (:func:`record_trial`); a unit's block holds one slice
    per process of its trial."""

    def work_units(self, config, workers: int) -> List[int]:
        return list(range(config.trials))

    def unit_block(self, config, trial: int) -> ColumnBlock:
        dense = record_trial(config, trial).to_dense()[0]
        return campaign_block([(trial, process) for process in range(len(dense))], dense)
