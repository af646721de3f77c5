"""Pluggable OS-noise sources.

The seed modelled exactly two noise populations — a periodic daemon tick and
a Poisson interrupt process — hardwired inside
:class:`~repro.cluster.noise.OSNoiseModel`.  This module generalises them to
a :class:`NoiseSource` protocol with a name registry
(:func:`register_noise_source`), mirroring the campaign-backend registry:
new machine personalities (heavy-tailed SMI storms, bursty cron fleets,
virtualised network interrupts, ...) plug into the noise model without
touching the cluster layer.

A source answers the one question the model asks,
:meth:`NoiseSource.batch_extra`: the total extra delay its events add to
each window of a batch of independent compute windows.

The two built-ins ``periodic-daemon`` and ``poisson-interrupts`` reproduce
the seed's populations bit-identically (same draw order, same guards), which
is what keeps the default campaign datasets stable across the refactor.

Named *noise profiles* (:func:`noise_profile`) compose registered sources
into ready-made :class:`~repro.cluster.noise.NoiseSpec` bundles the scenario
catalog refers to by name.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Tuple, Type

import numpy as np

from repro._registry import Registry
from repro.cluster.noise import NoiseSourceSpec, NoiseSpec
from repro.openmp.schedule import segment_sums


class NoiseSource(ABC):
    """One population of OS-noise events on a core.

    Implementations must draw from the passed-in generator *only* (no hidden
    randomness), in a deterministic call order, so that campaigns stay
    reproducible and bit-identical across shard orderings.
    """

    #: registered source kind (set by :func:`register_noise_source`)
    kind: str = "abstract"

    # ------------------------------------------------------------------
    @abstractmethod
    def batch_extra(self, work: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Total extra delay per entry of ``work`` (independent windows)."""

    # ------------------------------------------------------------------
    def params(self) -> Dict[str, float]:
        """The source's constructor parameters (for specs and reports)."""
        return {}

    def spec(self) -> NoiseSourceSpec:
        """Round-trippable declarative description of this source."""
        return NoiseSourceSpec.of(self.kind, **self.params())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params().items()))
        return f"{type(self).__name__}({args})"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_NOISE_SOURCES: Registry[Type[NoiseSource]] = Registry(
    "noise source",
    "sources",
    accepts=lambda cls: isinstance(cls, type) and issubclass(cls, NoiseSource),
    expects="a NoiseSource subclass",
    name_attr="kind",
    write_back=True,
)

#: class decorator registering a :class:`NoiseSource`, bare (under its
#: ``kind``) or named (``@register_noise_source("pareto-interrupts")``)
register_noise_source = _NOISE_SOURCES.register
available_noise_sources = _NOISE_SOURCES.names
#: the :class:`NoiseSource` class registered under a kind
get_noise_source = _NOISE_SOURCES.lookup
unregister_noise_source = _NOISE_SOURCES.unregister


def make_noise_source(kind: str, **params) -> NoiseSource:
    """Instantiate the noise source registered under ``kind``."""
    return get_noise_source(kind)(**params)


def build_noise_sources(specs) -> Tuple[NoiseSource, ...]:
    """Instantiate a sequence of :class:`NoiseSourceSpec` declarations."""
    return tuple(make_noise_source(spec.kind, **spec.as_dict()) for spec in specs)


def _require_non_negative(**values: float) -> None:
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative")


def _sum_per_window(
    durations: np.ndarray, flat_counts: np.ndarray, shape
) -> np.ndarray:
    """Sum ``durations`` into windows sized by ``flat_counts``.

    Fast path: one vectorised ``reduceat``
    (:func:`~repro.openmp.schedule.segment_sums`) instead of the seed's
    per-window ``np.split`` list comprehension — with the campaign tensor
    kernel a single call covers an entire ``(n_iterations, n_threads)``
    shard, i.e. thousands of windows.

    Bit-continuity: ``reduceat`` sums strictly left-to-right while
    ``ndarray.sum`` may reorder (SIMD/pairwise accumulation), so the two
    can differ in the last ULP once a window holds 3+ events.  Windows
    with 0-2 events are provably identical either way, and at the shipped
    noise rates expected counts are ≪ 1, so virtually every window rides
    the vectorised path; the rare crowded window is re-summed with the
    seed's exact ``ndarray.sum``, keeping same-seed datasets reproducible
    bit-for-bit against pre-batched recordings.
    """
    flat_counts = np.asarray(flat_counts)
    offsets = np.concatenate(([0], np.cumsum(flat_counts)))
    sums = segment_sums(durations, offsets)
    durations = np.asarray(durations)
    for k in np.flatnonzero(flat_counts >= 3):
        sums[k] = durations[offsets[k] : offsets[k + 1]].sum()
    return sums.reshape(shape)


# ----------------------------------------------------------------------
# built-in sources
# ----------------------------------------------------------------------
@register_noise_source("periodic-daemon")
class PeriodicDaemonSource(NoiseSource):
    """Timer ticks, kernel threads, monitoring agents.

    A fixed period and a fixed (small) duration — exactly the seed's
    periodic population.
    """

    def __init__(self, period_s: float = 0.010, duration_s: float = 4.0e-6) -> None:
        _require_non_negative(period_s=period_s, duration_s=duration_s)
        if period_s == 0 and duration_s > 0:
            raise ValueError("duration_s requires a non-zero period_s")
        self.period_s = float(period_s)
        self.duration_s = float(duration_s)

    def params(self) -> Dict[str, float]:
        return {"period_s": self.period_s, "duration_s": self.duration_s}

    def batch_extra(self, work: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.period_s <= 0 or self.duration_s <= 0:
            return np.zeros_like(work)
        expected_ticks = work / self.period_s
        ticks = np.floor(expected_ticks) + (
            rng.uniform(size=work.shape) < (expected_ticks - np.floor(expected_ticks))
        )
        return ticks * self.duration_s


@register_noise_source("poisson-interrupts")
class PoissonInterruptSource(NoiseSource):
    """Rare, longer preemptions as a Poisson process (the seed's second
    population): exponentially distributed durations with a hard cap."""

    def __init__(
        self,
        rate_hz: float = 0.3,
        mean_s: float = 0.5e-3,
        max_s: float = 8.0e-3,
    ) -> None:
        _require_non_negative(rate_hz=rate_hz, mean_s=mean_s, max_s=max_s)
        self.rate_hz = float(rate_hz)
        self.mean_s = float(mean_s)
        self.max_s = float(max_s)

    def params(self) -> Dict[str, float]:
        return {"rate_hz": self.rate_hz, "mean_s": self.mean_s, "max_s": self.max_s}

    def batch_extra(self, work: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.rate_hz <= 0 or self.mean_s <= 0:
            return np.zeros_like(work)
        counts = rng.poisson(self.rate_hz * work)
        flat_counts = counts.ravel()
        total = int(flat_counts.sum())
        if total == 0:
            return np.zeros_like(work)
        durations = np.minimum(rng.exponential(self.mean_s, size=total), self.max_s)
        return _sum_per_window(durations, flat_counts, work.shape)


@register_noise_source("pareto-interrupts")
class ParetoInterruptSource(NoiseSource):
    """Heavy-tailed interrupts (SMIs, page-fault storms, reclaim stalls).

    Arrivals are Poisson; durations follow a Pareto (power-law) distribution
    with shape ``alpha`` and scale ``scale_s``, capped at ``max_s``.  Small
    ``alpha`` (< 2) produces the occasional multi-millisecond outlier that an
    exponential model essentially never draws — the regime where laggard
    tails stop looking normal.
    """

    def __init__(
        self,
        rate_hz: float = 0.05,
        scale_s: float = 0.2e-3,
        alpha: float = 1.5,
        max_s: float = 50.0e-3,
    ) -> None:
        _require_non_negative(rate_hz=rate_hz, scale_s=scale_s, max_s=max_s)
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.rate_hz = float(rate_hz)
        self.scale_s = float(scale_s)
        self.alpha = float(alpha)
        self.max_s = float(max_s)

    def params(self) -> Dict[str, float]:
        return {
            "rate_hz": self.rate_hz,
            "scale_s": self.scale_s,
            "alpha": self.alpha,
            "max_s": self.max_s,
        }

    def _durations(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # (1 + Pareto(alpha)) * scale is a Pareto with minimum `scale`
        return np.minimum(self.scale_s * (1.0 + rng.pareto(self.alpha, size=n)), self.max_s)

    def batch_extra(self, work: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.rate_hz <= 0 or self.scale_s <= 0:
            return np.zeros_like(work)
        counts = rng.poisson(self.rate_hz * work)
        flat_counts = counts.ravel()
        total = int(flat_counts.sum())
        if total == 0:
            return np.zeros_like(work)
        return _sum_per_window(self._durations(total, rng), flat_counts, work.shape)


@register_noise_source("cron-burst")
class CronBurstSource(NoiseSource):
    """Bursty cron-style daemons: long quiet periods, then a volley.

    Fires every ``period_s`` (like the periodic daemon); each firing launches a Poisson-sized burst of back-to-back jobs with
    exponentially distributed durations (capped).  Models log rotation,
    telemetry uploads and health-check fleets that wake together.
    """

    def __init__(
        self,
        period_s: float = 1.0,
        burst_mean: float = 4.0,
        duration_s: float = 0.3e-3,
        max_s: float = 10.0e-3,
    ) -> None:
        _require_non_negative(
            period_s=period_s, burst_mean=burst_mean, duration_s=duration_s, max_s=max_s
        )
        if period_s == 0 and burst_mean > 0 and duration_s > 0:
            raise ValueError("a burst population requires a non-zero period_s")
        self.period_s = float(period_s)
        self.burst_mean = float(burst_mean)
        self.duration_s = float(duration_s)
        self.max_s = float(max_s)

    def params(self) -> Dict[str, float]:
        return {
            "period_s": self.period_s,
            "burst_mean": self.burst_mean,
            "duration_s": self.duration_s,
            "max_s": self.max_s,
        }

    def batch_extra(self, work: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.period_s <= 0 or self.burst_mean <= 0 or self.duration_s <= 0:
            return np.zeros_like(work)
        expected = work / self.period_s
        firings = np.floor(expected) + (
            rng.uniform(size=work.shape) < (expected - np.floor(expected))
        )
        counts = rng.poisson(firings * self.burst_mean)
        flat_counts = counts.ravel()
        total = int(flat_counts.sum())
        if total == 0:
            return np.zeros_like(work)
        durations = np.minimum(rng.exponential(self.duration_s, size=total), self.max_s)
        return _sum_per_window(durations, flat_counts, work.shape)


@register_noise_source("network-storm")
class NetworkStormSource(NoiseSource):
    """Network-interrupt storms: rare arrivals, many tiny preemptions each.

    Storms arrive as a Poisson process; each storm scatters a Poisson-sized
    packet volley of fixed-cost softirq handlers across a ``span_s`` window.
    Typical of virtualised NICs and noisy cloud neighbours.
    """

    def __init__(
        self,
        storm_rate_hz: float = 0.05,
        packets_mean: float = 40.0,
        packet_s: float = 20.0e-6,
        span_s: float = 2.0e-3,
    ) -> None:
        _require_non_negative(
            storm_rate_hz=storm_rate_hz,
            packets_mean=packets_mean,
            packet_s=packet_s,
            span_s=span_s,
        )
        self.storm_rate_hz = float(storm_rate_hz)
        self.packets_mean = float(packets_mean)
        self.packet_s = float(packet_s)
        self.span_s = float(span_s)

    def params(self) -> Dict[str, float]:
        return {
            "storm_rate_hz": self.storm_rate_hz,
            "packets_mean": self.packets_mean,
            "packet_s": self.packet_s,
            "span_s": self.span_s,
        }

    def batch_extra(self, work: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.storm_rate_hz <= 0 or self.packets_mean <= 0 or self.packet_s <= 0:
            return np.zeros_like(work)
        storms = rng.poisson(self.storm_rate_hz * work)
        packets = rng.poisson(storms * self.packets_mean)
        return packets * self.packet_s


@register_noise_source("silent")
class SilentSource(NoiseSource):
    """A source that never fires — the explicit 'no noise' population."""

    def batch_extra(self, work: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.zeros_like(work)


# ----------------------------------------------------------------------
# noise profiles: named NoiseSpec compositions
# ----------------------------------------------------------------------
_NOISE_PROFILES: Registry[Callable[[], NoiseSpec]] = Registry(
    "noise profile",
    "profiles",
    accepts=callable,
    expects="a zero-argument NoiseSpec factory",
    name_attr="__name__",
    # equal specs make re-registration idempotent even for distinct lambdas
    same=lambda existing, factory: existing is factory or existing() == factory(),
)

#: ``register_noise_profile(name, factory, replace=...)`` registers a named
#: zero-argument :class:`NoiseSpec` factory
register_noise_profile = _NOISE_PROFILES.register
available_noise_profiles = _NOISE_PROFILES.names
unregister_noise_profile = _NOISE_PROFILES.unregister


def noise_profile(name: str) -> NoiseSpec:
    """The :class:`NoiseSpec` registered under profile ``name``."""
    return _NOISE_PROFILES.lookup(name)()


# parameterless specs fall back to the source classes' constructor defaults,
# which are the seed population — no third copy of those numbers here
_DAEMON = NoiseSourceSpec.of("periodic-daemon")
_POISSON = NoiseSourceSpec.of("poisson-interrupts")

register_noise_profile("default", NoiseSpec)
register_noise_profile("none", lambda: NoiseSpec(enabled=False))
register_noise_profile(
    "heavy-tail",
    lambda: NoiseSpec(
        sources=(
            _DAEMON,
            NoiseSourceSpec.of(
                "pareto-interrupts", rate_hz=0.2, scale_s=0.2e-3, alpha=1.5, max_s=50.0e-3
            ),
        )
    ),
)
register_noise_profile(
    "bursty",
    lambda: NoiseSpec(
        sources=(
            _DAEMON,
            NoiseSourceSpec.of(
                "cron-burst", period_s=0.5, burst_mean=6.0, duration_s=0.3e-3, max_s=10.0e-3
            ),
        )
    ),
)
register_noise_profile(
    "storm",
    lambda: NoiseSpec(
        sources=(
            _DAEMON,
            _POISSON,
            NoiseSourceSpec.of(
                "network-storm",
                storm_rate_hz=0.5,
                packets_mean=60.0,
                packet_s=20.0e-6,
                span_s=2.0e-3,
            ),
        )
    ),
)
register_noise_profile(
    "cloud",
    lambda: NoiseSpec(
        jitter_fraction=0.02,
        sources=(
            NoiseSourceSpec.of("periodic-daemon", period_s=0.004, duration_s=12.0e-6),
            NoiseSourceSpec.of(
                "poisson-interrupts", rate_hz=1.5, mean_s=0.8e-3, max_s=12.0e-3
            ),
            NoiseSourceSpec.of(
                "pareto-interrupts", rate_hz=0.1, scale_s=0.3e-3, alpha=1.3, max_s=80.0e-3
            ),
            NoiseSourceSpec.of(
                "network-storm",
                storm_rate_hz=1.0,
                packets_mean=80.0,
                packet_s=25.0e-6,
                span_s=3.0e-3,
            ),
        ),
    ),
)
