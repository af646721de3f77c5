"""Laggard-thread analysis and iteration classification (§4.2).

The paper flags a process-iteration as *containing a laggard* when its latest
thread arrives more than a threshold (1 ms) after the median thread of that
process-iteration, and reports what fraction of iterations contain one
(22.4 % for MiniFE, 4.8 % for post-warm-up MiniMD).  It also distinguishes
distribution *classes* by example histograms:

* ``NO_LAGGARD`` — tight, unimodal arrival pattern (Fig. 5a / 7b),
* ``LAGGARD`` — tight pattern plus one (or a few) extreme stragglers
  (Fig. 5b / 7c),
* ``WIDE`` — broad spread without a single dominant straggler (Fig. 7a — the
  first 19 MiniMD iterations — and every MiniQMC iteration, Fig. 9).

The laggards pass of :mod:`repro.analysis.passes` computes every group's
metrics and class (:func:`group_laggard_codes`) and returns them as a
:class:`LaggardAnalysis`, from which the figure generators pick each
class's representative example programmatically instead of by hand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: The paper's laggard threshold: "approximately 5% slower than the ... median".
DEFAULT_LAGGARD_THRESHOLD_S = 1.0e-3

#: IQR above which an arrival pattern is considered "wide" rather than tight.
DEFAULT_WIDE_IQR_S = 2.0e-3


class IterationClass(enum.Enum):
    """Arrival-distribution classes observed in the paper's histograms."""

    NO_LAGGARD = "no_laggard"
    LAGGARD = "laggard"
    WIDE = "wide"


#: each class's integer code (its ``list(IterationClass)`` index)
CLASS_CODES = {cls: code for code, cls in enumerate(IterationClass)}


@dataclass
class LaggardAnalysis:
    """Per-group laggard metrics for one dataset.

    All arrays have one entry per process-iteration group (the Table-1
    granularity), in key order.  The keys are held as runs, not tuples:
    run ``r`` is ``slice_sizes[r]`` consecutive groups whose keys start with
    ``slice_keys[r]`` (a (trial, process) slice), and ``iterations`` holds
    every group's last key element; :attr:`keys` builds the tuples on
    demand.  ``codes`` are the groups' :data:`CLASS_CODES`.  The gaps and
    laggard flags are derived from the maxima and medians when read.
    """

    slice_keys: np.ndarray
    slice_sizes: np.ndarray
    iterations: np.ndarray
    median_s: np.ndarray
    max_s: np.ndarray
    iqr_s: np.ndarray
    codes: np.ndarray
    threshold_s: float
    wide_iqr_s: float

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self.iterations)

    @property
    def gap_s(self) -> np.ndarray:
        """Each group's latest arrival minus its median."""
        return self.max_s - self.median_s

    @property
    def has_laggard(self) -> np.ndarray:
        """Whether each group's gap exceeds the laggard threshold."""
        return self.gap_s > self.threshold_s

    @property
    def keys(self) -> List[Tuple[int, ...]]:
        """Every group's key tuple, built on demand."""
        prefixes = np.repeat(self.slice_keys, self.slice_sizes, axis=0)
        table = np.column_stack([prefixes, self.iterations])
        return [tuple(key) for key in table.tolist()]

    def key(self, index: int) -> Tuple[int, ...]:
        """Key tuple of group ``index``."""
        run = int(np.searchsorted(np.cumsum(self.slice_sizes), index, side="right"))
        return tuple(self.slice_keys[run].tolist()) + (int(self.iterations[index]),)

    @property
    def classes(self) -> List[IterationClass]:
        """Every group's class, built on demand from ``codes``."""
        members = list(IterationClass)
        return [members[code] for code in self.codes.tolist()]

    @property
    def laggard_fraction(self) -> float:
        """Fraction of process-iterations containing a laggard thread."""
        return float(np.mean(self.has_laggard))

    def class_fraction(self, iteration_class: IterationClass) -> float:
        """Fraction of groups classified as ``iteration_class``."""
        return float(np.mean(self.codes == CLASS_CODES[iteration_class]))

    def class_counts(self) -> Dict[IterationClass, int]:
        counts = np.bincount(self.codes, minlength=len(IterationClass))
        return {cls: int(counts[code]) for cls, code in CLASS_CODES.items()}

    # ------------------------------------------------------------------
    def exemplar(self, iteration_class: IterationClass) -> Optional[Tuple[int, ...]]:
        """Key of the most typical group of a class (median gap within class).

        Used by the figure generators to pick the single process-iteration
        whose histogram illustrates the class (Figures 5, 7 and 9).
        """
        indices = np.flatnonzero(self.codes == CLASS_CODES[iteration_class])
        if not len(indices):
            return None
        gaps = self.gap_s[indices]
        target = np.median(gaps)
        return self.key(int(indices[int(np.argmin(np.abs(gaps - target)))]))


def group_laggard_codes(
    iqr: np.ndarray,
    has_laggard: np.ndarray,
    *,
    wide_iqr_s: float = DEFAULT_WIDE_IQR_S,
) -> np.ndarray:
    """Integer class codes of each group: its :data:`CLASS_CODES`.

    ``0`` = NO_LAGGARD, ``1`` = LAGGARD, ``2`` = WIDE — the vectorised
    classification, small enough to keep as an ``int8`` per group.
    """
    codes = np.asarray(has_laggard, dtype=np.int8).copy()
    codes[np.asarray(iqr) > wide_iqr_s] = 2
    return codes

