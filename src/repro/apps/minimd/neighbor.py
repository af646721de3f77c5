"""The analytic neighbour-count model behind MiniMD's per-atom force cost.

MiniMD's force kernel iterates over each atom's stored neighbours, so the
**expected neighbour count** per atom (:func:`expected_neighbors`) sets the
per-atom cost of the timed region at production scale.
"""

from __future__ import annotations

import numpy as np

#: Standard LJ melt reduced density used by MiniMD's default input.
DEFAULT_DENSITY = 0.8442
#: MiniMD's default force cutoff (reduced units).
DEFAULT_CUTOFF = 2.5


def expected_neighbors(
    density: float, cutoff: float = DEFAULT_CUTOFF, *, half_list: bool = True
) -> float:
    """Expected neighbours per atom inside ``cutoff`` at the given density.

    ``(4/3)·π·r³·ρ`` for a full list; MiniMD's default is a half list (each
    pair stored once), so the per-atom count is half that.
    """
    if density <= 0 or cutoff <= 0:
        raise ValueError("density and cutoff must be positive")
    full = 4.0 / 3.0 * np.pi * cutoff**3 * density
    return full / 2.0 if half_list else full
