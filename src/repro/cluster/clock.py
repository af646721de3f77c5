"""The per-core clock population of a machine.

The paper (§3.1) measures time with ``clock_gettime(CLOCK_MONOTONIC)``, which
POSIX only guarantees to be monotonic *per core*: without ``tsc_reliable``
there is no ordering guarantee across the cores and sockets of a node.  The
authors therefore derive *compute time* (exit − enter on the same core), which
cancels the per-core offset.  :class:`ClockSpec` describes the population:
every core's clock has a private epoch offset (time since "an undefined
event in the past"), a small relative drift and bounded read jitter.  The
samplers draw compute times directly, so only the discrete-event reference
in the test tree reads clocks built from it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClockSpec:
    """Statistical description of the per-core clock population.

    Parameters
    ----------
    max_offset_s:
        Per-core epoch offsets are drawn uniformly from ``[0, max_offset_s]``.
        Offsets of seconds to days are typical (time since boot).
    drift_ppm:
        Standard deviation of the per-core relative frequency error in parts
        per million.
    read_jitter_ns:
        Half-width of the uniform jitter added to every read, modelling clock
        source granularity (``clock_getres`` is ~1 ns but reads cost ~20 ns).
    tsc_reliable:
        When ``True`` all cores share one offset and zero drift (a platform
        with a synchronised, invariant TSC).  The paper's platform does *not*
        have this flag, which is the point of the compute-time derivation.
    """

    max_offset_s: float = 1.0e6
    drift_ppm: float = 2.0
    read_jitter_ns: float = 15.0
    tsc_reliable: bool = False

    def __post_init__(self) -> None:
        if self.max_offset_s < 0 or self.drift_ppm < 0 or self.read_jitter_ns < 0:
            raise ValueError("ClockSpec parameters must be non-negative")
