"""MiniMD: a Lennard-Jones molecular-dynamics proxy (Mantevo, based on LAMMPS).

The paper times MiniMD's Lennard-Jones forcing function — "the most
computationally intensive section of the application" — at a compute volume
of 128³.  This subpackage provides:

* :mod:`~repro.apps.minimd.neighbor` — the analytic expected-neighbour-count
  model that sets the per-atom force cost at production scale.
* :mod:`~repro.apps.minimd.app` — :class:`MiniMDApp`, the calibrated proxy
  used by the campaign (including the two-phase warm-up behaviour of
  Figure 6).
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.apps.minimd.app": ("MiniMDApp", "MiniMDConfig"),
    "repro.apps.minimd.neighbor": ("expected_neighbors",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
