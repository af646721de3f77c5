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

The central query is :meth:`OSNoiseModel.batch_delays`: given that each
entry of a batch needs ``work_s`` seconds of CPU, how much *extra* wall time
does noise add?  A thread detours through every noise event that lands in
its execution window, which is how a 25 ms compute region stretches to
26+ ms when a 1.2 ms interrupt lands inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.scenarios.sources import NoiseSource


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
    def batch_delays(
        self, work_s, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Vectorised noise delays for a batch of independent compute windows.

        Each source's :meth:`~repro.scenarios.sources.NoiseSource.batch_extra`
        draws, for every window, the total preemption a discrete timeline of
        its events would add, without per-core phase bookkeeping (the
        discrete-event reference sampler in the test tree walks such
        timelines; the two agree in distribution).  ``work_s`` may have any
        shape (the campaign backend passes one ``(n_iterations, n_threads)``
        plane per shard); every registered source draws for the whole batch
        in one call, and the returned delays match the input shape.
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
        # plain generators pass through maybe_scope untouched, so a caller
        # that samples one batch at a time keeps its plain draw sequence
        from repro.sim.random import maybe_scope

        for index, source in enumerate(self.sources):
            with maybe_scope(gen, "source", index):
                extra = extra + source.batch_extra(work, gen)
        return extra
