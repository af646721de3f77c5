"""MiniQMC: a quantum Monte Carlo proxy (based on QMCPACK).

The paper times "the entirety of the computation for the individual threaded
'movers'": each OpenMP thread owns a mover (a walker plus its wavefunction
buffers) and advances it through a sweep of single-particle moves.  This
subpackage provides :mod:`~repro.apps.miniqmc.app` —
:class:`MiniQMCApp`, the calibrated proxy used by the campaign, whose
per-walker mover times are normals around per-process walker-population
statistics.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.apps.miniqmc.app": ("MiniQMCApp", "MiniQMCConfig"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
