"""Operating-system noise model.

The paper attributes laggard threads primarily to OS noise (citing Morari et
al., "A quantitative analysis of OS noise", IPDPS 2011).  By default we model
two noise sources per core:

* **Periodic daemons** — timer ticks, kernel threads, monitoring agents: a
  fixed period, a fixed (small) duration, and a per-core phase.
* **Random interrupts** — a Poisson process of rare, longer preemptions
  (page-cache flush, NUMA balancing, ...), with exponentially distributed
  durations.  These are what produce >1 ms laggards.

:class:`OSNoiseModel` composes a list of registered
:class:`~repro.scenarios.sources.NoiseSource` instances; the default pair
above is what a plain :class:`NoiseSpec` builds (bit-identical to the
original hardwired model), and scenario noise profiles swap in heavy-tailed,
bursty or storm populations through :attr:`NoiseSpec.sources`.

The central query is :meth:`OSNoiseModel.delay_over`: given that a thread
needs ``work_s`` seconds of CPU starting at ``start_s`` on a given core, how
much *extra* wall time does noise add?  The model "detours" through every
noise event overlapping the execution window, which is how a 25 ms compute
region stretches to 26+ ms when a 1.2 ms interrupt lands inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.topology import Core

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.scenarios.sources import NoiseSource


@dataclass(frozen=True)
class NoiseEvent:
    """One noise occurrence on a core: ``duration`` seconds at ``start``."""

    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class NoiseSourceSpec:
    """Declarative description of one registered noise source.

    ``kind`` names an entry of the noise-source registry
    (:func:`repro.scenarios.sources.register_noise_source`); ``params`` are
    the constructor keyword arguments, stored as a sorted tuple of pairs so
    the spec stays hashable and produces stable cache keys.  Build with
    :meth:`of` for keyword ergonomics::

        NoiseSourceSpec.of("pareto-interrupts", rate_hz=0.2, alpha=1.5)
    """

    kind: str
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not str(self.kind).strip():
            raise ValueError("NoiseSourceSpec needs a source kind")
        params = self.params
        if isinstance(params, dict):
            params = params.items()
        object.__setattr__(
            self, "params", tuple(sorted((str(k), v) for k, v in params))
        )

    @classmethod
    def of(cls, kind: str, **params) -> "NoiseSourceSpec":
        """Construct a spec from keyword parameters."""
        return cls(kind=kind, params=tuple(sorted(params.items())))

    def as_dict(self) -> Dict[str, float]:
        """The parameters as a plain keyword dictionary."""
        return dict(self.params)


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of the per-core OS noise population.

    Parameters
    ----------
    daemon_period_s / daemon_duration_s:
        Period and duration of the periodic noise component.  Defaults model
        a 10 ms scheduling tick stealing ~4 µs.
    interrupt_rate_hz:
        Mean rate of the random (Poisson) interrupt component per core.
    interrupt_mean_s:
        Mean duration of one random interrupt (exponential).
    interrupt_max_s:
        Hard cap on a single interrupt duration (keeps tails physical).
    jitter_fraction:
        Multiplicative lognormal-ish jitter applied to pure compute time,
        modelling cache/TLB/DVFS variation (standard deviation as a fraction
        of the compute time).
    enabled:
        Master switch (the noise-off ablation uses ``enabled=False``).
    sources:
        Optional tuple of :class:`NoiseSourceSpec` declarations.  When empty
        (the default) the model is built from the legacy scalar fields above
        — one periodic daemon plus one Poisson interrupt source, bit-identical
        to the pre-registry model.  When non-empty, exactly these registered
        sources are composed *instead* and the scalar fields are ignored.
    """

    daemon_period_s: float = 0.010
    daemon_duration_s: float = 4.0e-6
    interrupt_rate_hz: float = 0.3
    interrupt_mean_s: float = 0.5e-3
    interrupt_max_s: float = 8.0e-3
    jitter_fraction: float = 0.005
    enabled: bool = True
    sources: Tuple[NoiseSourceSpec, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "daemon_period_s",
            "daemon_duration_s",
            "interrupt_rate_hz",
            "interrupt_mean_s",
            "interrupt_max_s",
            "jitter_fraction",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.daemon_period_s == 0 and self.daemon_duration_s > 0:
            raise ValueError("daemon_duration_s requires a non-zero period")
        object.__setattr__(self, "sources", tuple(self.sources))
        for source in self.sources:
            if not isinstance(source, NoiseSourceSpec):
                raise TypeError(
                    "NoiseSpec.sources entries must be NoiseSourceSpec, "
                    f"got {type(source).__name__}"
                )

    def disabled(self) -> "NoiseSpec":
        """A copy of this spec with all noise switched off."""
        return replace(self, enabled=False)

    def with_sources(self, *sources: NoiseSourceSpec) -> "NoiseSpec":
        """A copy of this spec composing exactly the given sources."""
        return replace(self, sources=tuple(sources))

    def build_sources(self) -> Tuple["NoiseSource", ...]:
        """Instantiate this spec's noise sources from the registry.

        The import is deferred so the cluster layer stays importable without
        the scenario subsystem (which itself imports this module).
        """
        from repro.scenarios.sources import build_noise_sources

        if self.sources:
            return build_noise_sources(self.sources)
        return build_noise_sources(
            (
                NoiseSourceSpec.of(
                    "periodic-daemon",
                    period_s=self.daemon_period_s,
                    duration_s=self.daemon_duration_s,
                ),
                NoiseSourceSpec.of(
                    "poisson-interrupts",
                    rate_hz=self.interrupt_rate_hz,
                    mean_s=self.interrupt_mean_s,
                    max_s=self.interrupt_max_s,
                ),
            )
        )


class OSNoiseModel:
    """Samples OS noise for the cores of one simulated process.

    Composes the :class:`~repro.scenarios.sources.NoiseSource` instances the
    spec declares (or the default daemon + Poisson pair), querying them in
    order with the model's generator so draw sequences stay deterministic.

    Parameters
    ----------
    spec:
        Noise population parameters.
    rng:
        Source of randomness (per process/trial, so trials are independent).
    sources:
        Explicit source instances to compose, overriding ``spec``'s source
        declarations (the spec's ``enabled``/``jitter_fraction`` switches
        still apply).
    """

    def __init__(
        self,
        spec: Optional[NoiseSpec] = None,
        rng: Optional[np.random.Generator] = None,
        *,
        sources: Optional[Sequence["NoiseSource"]] = None,
    ):
        self.spec = spec if spec is not None else NoiseSpec()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.sources: Tuple["NoiseSource", ...] = (
            tuple(sources) if sources is not None else self.spec.build_sources()
        )

    # ------------------------------------------------------------------
    @property
    def horizon_s(self) -> float:
        """Look-ahead the composed sources need beyond a compute window."""
        return float(sum(source.horizon_s for source in self.sources))

    # ------------------------------------------------------------------
    def events_in(
        self, core: Core, start_s: float, end_s: float
    ) -> List[NoiseEvent]:
        """All noise events on ``core`` overlapping ``[start_s, end_s)``."""
        if not self.spec.enabled or end_s <= start_s:
            return []
        events: List[NoiseEvent] = []
        for source in self.sources:
            events.extend(source.events_in(core.global_id, start_s, end_s, self._rng))
        events.sort(key=lambda ev: ev.start)
        return events

    # ------------------------------------------------------------------
    def jittered_compute(self, work_s: float, rng: Optional[np.random.Generator] = None) -> float:
        """Apply multiplicative execution jitter to a pure compute time."""
        if work_s < 0:
            raise ValueError("work_s must be non-negative")
        if not self.spec.enabled or self.spec.jitter_fraction <= 0 or work_s == 0:
            return work_s
        gen = rng if rng is not None else self._rng
        factor = float(gen.normal(1.0, self.spec.jitter_fraction))
        return work_s * max(factor, 0.5)

    def delay_over(self, core: Core, start_s: float, work_s: float) -> float:
        """Extra wall time added by noise to ``work_s`` seconds of compute.

        The thread starts at ``start_s``; every noise event whose start falls
        inside the (continuously extended) execution window preempts the
        thread for its full duration.

        Returns the *additional* time, i.e. wall time = ``work_s`` + return
        value.
        """
        if work_s < 0:
            raise ValueError("work_s must be non-negative")
        if not self.spec.enabled or work_s == 0.0:
            return 0.0
        # Look ahead over a window generously larger than the work to capture
        # events that land inside the stretched execution.
        horizon = work_s * 1.5 + self.horizon_s
        events = self.events_in(core, start_s, start_s + horizon)
        end = start_s + work_s
        extra = 0.0
        for event in events:
            if event.start < end:
                end += event.duration
                extra += event.duration
            else:
                break
        return extra

    def batch_delays(
        self, work_s, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Vectorised noise delays for a batch of independent compute windows.

        Statistically equivalent to calling :meth:`delay_over` once per entry
        (periodic daemon occurrences + Poisson interrupts), but without the
        per-core phase bookkeeping — the fast campaign paths use this, the
        event-driven path uses :meth:`delay_over`.  ``work_s`` may have any
        shape — the vectorized backend passes ``(n_threads,)`` slices, the
        campaign backend one ``(n_iterations, n_threads)`` plane per shard —
        and every registered source draws for the whole batch in one call;
        the returned delays match the input shape.
        """
        work = np.asarray(work_s, dtype=np.float64)
        if np.any(work < 0):
            raise ValueError("work times must be non-negative")
        if not self.spec.enabled:
            return np.zeros_like(work)
        gen = rng if rng is not None else self._rng
        extra = np.zeros_like(work)
        # each source draws under its own scope when the rng splits draws by
        # purpose (the campaign backend's chunk-invariant PurposeSplitRNG);
        # plain generators pass through maybe_scope untouched, so the other
        # backends' draw sequences — and pinned digests — are unchanged
        from repro.sim.random import maybe_scope

        for index, source in enumerate(self.sources):
            with maybe_scope(gen, "source", index):
                extra = extra + source.batch_extra(work, gen)
        return extra

    # ------------------------------------------------------------------
    def sample_wall_time(
        self,
        core: Core,
        start_s: float,
        work_s: float,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Wall time for ``work_s`` of compute starting at ``start_s`` on ``core``.

        Combines execution jitter and noise preemption; this is the single
        entry point used by the OpenMP execution simulator.
        """
        jittered = self.jittered_compute(work_s, rng=rng)
        return jittered + self.delay_over(core, start_s, jittered)

    def windowed(self, window_s: float = 1.0) -> "WindowedNoiseModel":
        """A :class:`WindowedNoiseModel` over this model's spec, sources and
        generator (per-core pre-generated timelines, see below)."""
        return WindowedNoiseModel(
            self.spec, self._rng, sources=self.sources, window_s=window_s
        )


class _CoreTimeline:
    """Pre-generated noise events of one core: sorted parallel arrays plus
    the horizon up to which the timeline has been drawn."""

    __slots__ = ("starts", "durations", "until")

    def __init__(self) -> None:
        self.starts = np.empty(0, dtype=np.float64)
        self.durations = np.empty(0, dtype=np.float64)
        self.until = 0.0


class WindowedNoiseModel(OSNoiseModel):
    """OS-noise model with per-core pre-generated event timelines.

    The base class draws a fresh event population for *every* query window —
    one set of generator calls per :meth:`~OSNoiseModel.delay_over`, which in
    the event-driven execution path means per chunk per iteration.  This
    subclass instead gives each core a single noise *timeline*, extended in
    fixed ``window_s`` blocks: the first query past the generated horizon
    draws every source's events for the whole next window in one
    ``events_in`` call per source, and subsequent queries are binary searches
    over the cached arrays.  A campaign region of ~25 ms amortises one
    1-second window over ~40 regions of queries.

    Two semantic consequences, both deliberate:

    * a core's noise is one consistent realisation — overlapping query
      windows see the *same* events instead of independent redraws (what the
      per-core clocks already do for time), with the same bounded preemption
      look-ahead as the per-query model;
    * draws happen window-by-window instead of query-by-query, so datasets
      sampled through a windowed model differ bit-wise from the per-query
      model while agreeing in distribution (the event backend re-pinned its
      reference digest when it adopted this model).
    """

    def __init__(
        self,
        spec: Optional[NoiseSpec] = None,
        rng: Optional[np.random.Generator] = None,
        *,
        sources: Optional[Sequence["NoiseSource"]] = None,
        window_s: float = 1.0,
    ):
        super().__init__(spec, rng, sources=sources)
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = float(window_s)
        self._timelines: Dict[object, _CoreTimeline] = {}

    # ------------------------------------------------------------------
    def _timeline(self, core: Core) -> _CoreTimeline:
        timeline = self._timelines.get(core.global_id)
        if timeline is None:
            timeline = self._timelines[core.global_id] = _CoreTimeline()
        return timeline

    def _extend(self, core: Core, timeline: _CoreTimeline, end_s: float) -> None:
        """Draw whole windows until the timeline covers ``end_s``."""
        while timeline.until < end_s:
            window_start = timeline.until
            window_end = window_start + self.window_s
            events: List[NoiseEvent] = []
            for source in self.sources:
                events.extend(
                    source.events_in(
                        core.global_id, window_start, window_end, self._rng
                    )
                )
            if events:
                events.sort(key=lambda ev: ev.start)
                timeline.starts = np.concatenate(
                    (timeline.starts, [ev.start for ev in events])
                )
                timeline.durations = np.concatenate(
                    (timeline.durations, [ev.duration for ev in events])
                )
            timeline.until = window_end

    # ------------------------------------------------------------------
    def events_in(
        self, core: Core, start_s: float, end_s: float
    ) -> List[NoiseEvent]:
        """Cached-timeline view of the events on ``core`` in ``[start_s, end_s)``."""
        if not self.spec.enabled or end_s <= start_s:
            return []
        timeline = self._timeline(core)
        self._extend(core, timeline, end_s)
        lo = int(np.searchsorted(timeline.starts, start_s, side="left"))
        hi = int(np.searchsorted(timeline.starts, end_s, side="left"))
        return [
            NoiseEvent(float(s), float(d))
            for s, d in zip(timeline.starts[lo:hi], timeline.durations[lo:hi])
        ]

    def delay_over(self, core: Core, start_s: float, work_s: float) -> float:
        """Extra wall time from the cached timeline.

        Same detour semantics as the base class — every event whose start
        falls inside the continuously extended execution window preempts for
        its full duration, considering events up to the same bounded
        look-ahead (``work_s * 1.5 + horizon_s``) — but served from the
        timeline, extending it on demand rather than drawing a fresh
        population per call.  The look-ahead bound matters beyond parity: it
        caps timeline growth (and terminates the walk) even for overloaded
        noise populations whose duty cycle reaches 1, where an exact walk
        would never catch up with the stretching window.
        """
        if work_s < 0:
            raise ValueError("work_s must be non-negative")
        if not self.spec.enabled or work_s == 0.0:
            return 0.0
        timeline = self._timeline(core)
        end = start_s + work_s
        horizon_end = start_s + work_s * 1.5 + self.horizon_s
        self._extend(core, timeline, horizon_end)
        extra = 0.0
        index = int(np.searchsorted(timeline.starts, start_s, side="left"))
        n_events = len(timeline.starts)
        while index < n_events:
            start = float(timeline.starts[index])
            if start >= end or start >= horizon_end:
                break
            duration = float(timeline.durations[index])
            end += duration
            extra += duration
            index += 1
        return extra


def total_noise(events: Sequence[NoiseEvent]) -> float:
    """Sum of the durations of a sequence of noise events."""
    return float(sum(event.duration for event in events))
