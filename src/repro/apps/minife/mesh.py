"""Structured brick mesh and its analytic 27-point stencil sparsity counts.

MiniFE assembles a hexahedral-element Laplace problem on an ``nx × ny × nz``
node grid; the resulting matrix has a 27-point stencil: row ``(x, y, z)``
couples to every node within one step in each dimension, so its nonzero count
is ``w(x)·w(y)·w(z)`` with ``w = 3`` for interior and ``2`` for boundary
coordinates.  Boundary rows therefore carry fewer nonzeros, which is exactly
what makes the threads owning boundary planes finish their share of the
mat-vec early — the paper's "early threads ... potentially due to work
distribution imbalance".

For the 200³ production volume the matrix has 8 × 10⁶ rows; building it is
unnecessary because the per-pencil counts the work model needs are available
in closed form here, in O(ny·nz) time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _axis_widths(n: int) -> np.ndarray:
    """Stencil width along one axis for every coordinate (2 on the boundary)."""
    if n < 1:
        raise ValueError("axis size must be >= 1")
    if n == 1:
        return np.ones(1)
    widths = np.full(n, 3.0)
    widths[0] = 2.0
    widths[-1] = 2.0
    return widths


@dataclass(frozen=True)
class BrickMesh:
    """An ``nx × ny × nz`` structured node grid in natural (x-fastest) ordering."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("mesh dimensions must be >= 1")

    def pencil_nonzeros(self) -> np.ndarray:
        """Nonzeros of every (z, y) pencil (a contiguous run of ``nx`` rows).

        Returned in pencil order ``z·ny + y`` — the unit the MiniFE work model
        hands to the OpenMP loop schedule (contiguous pencil blocks are
        contiguous row blocks).
        """
        wx_sum = _axis_widths(self.nx).sum()
        wy = _axis_widths(self.ny)
        wz = _axis_widths(self.nz)
        return (np.outer(wz, wy) * wx_sum).ravel()
