"""MiniFE: an unstructured-mesh implicit finite-element proxy (Mantevo).

The paper times MiniFE's sparse matrix-vector product — "the linear algebra
function of highest order" — at a compute volume of 200³ matrix elements per
process.  This subpackage provides:

* :mod:`~repro.apps.minife.mesh` — the structured brick mesh and the analytic
  per-pencil 27-point-stencil sparsity counts used by the work model.
* :mod:`~repro.apps.minife.app` — :class:`MiniFEApp`, the calibrated proxy
  used by the campaign.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.apps.minife.app": ("MiniFEApp", "MiniFEConfig"),
    "repro.apps.minife.mesh": ("BrickMesh",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
