"""The analysis-pass protocol, context and registry.

An :class:`AnalysisPass` is a mergeable analysis: instead of requiring the
whole merged :class:`~repro.core.timing.TimingDataset` in memory, it follows
the map-reduce-style lifecycle

``prepare → accumulate_columns_split(block) → merge → finalize``

* :meth:`AnalysisPass.prepare` creates an empty accumulator *state* for one
  campaign (a plain picklable object — states travel between executor
  workers).
* :meth:`AnalysisPass.accumulate_columns_split` folds a canonical
  :class:`~repro.core.aggregation.ColumnBlock` into one partial state per
  (trial, process) slice — the only way a pass sees data.
  :meth:`AnalysisPass.accumulate` folds a single shard through the same
  method, as its block.
* :meth:`AnalysisPass.merge` combines two states (any grouping of slices,
  any order — the built-in passes are written so the finalised product does
  not depend on how the campaign was chunked).
* :meth:`AnalysisPass.finalize` turns the merged state into the pass's
  product (a :class:`~repro.stats.percentiles.PercentileSeries`, a
  histogram, a laggard summary, ...).

Passes register by name with :func:`register_analysis` (one
:class:`~repro._registry.Registry`, the policy every catalog shares) and the
engine (:mod:`repro.analysis.engine`), the campaign
session and the CLI resolve them with :func:`get_analysis` /
:func:`available_analyses`.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Mapping,
    Optional,
    Tuple,
    Type,
    Union,
)

import numpy as np

from repro._registry import Registry
from repro.core.aggregation import ColumnBlock, shard_block
from repro.core.timing import TimingDataset, TimingShard

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.experiments.config import CampaignConfig


@dataclasses.dataclass(frozen=True)
class AnalysisContext:
    """Campaign-level facts every pass may rely on while streaming.

    Blocks carry only their own rows; the context supplies the global frame
    (the full trial/process/iteration index sets, thread count, application
    label and dataset metadata) so passes can place per-slice partials —
    e.g. the early-bird pass needs each group's *global* index to reproduce
    the deterministic strided subset of the dense path.
    """

    application: str = "unknown"
    trials: Tuple[int, ...] = ()
    processes: Tuple[int, ...] = ()
    iterations: Tuple[int, ...] = ()
    n_threads: int = 0
    metadata: Mapping[str, object] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def n_processes(self) -> int:
        return len(self.processes)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def n_groups(self) -> int:
        """Process-iteration group count (the Table-1 granularity)."""
        return self.n_trials * self.n_processes * self.n_iterations

    @property
    def n_samples(self) -> int:
        return self.n_groups * self.n_threads

    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls,
        config: "CampaignConfig",
        *,
        metadata: Optional[Mapping[str, object]] = None,
    ) -> "AnalysisContext":
        """Context of a campaign described by its configuration."""
        return cls(
            application=config.application,
            trials=tuple(range(config.trials)),
            processes=tuple(range(config.processes)),
            iterations=tuple(range(config.iterations)),
            n_threads=config.threads,
            metadata=dict(metadata or {}),
        )

    @classmethod
    def from_dataset(cls, dataset: TimingDataset) -> "AnalysisContext":
        """Context of an already-materialised dataset (see
        :func:`~repro.analysis.engine.analyze_dataset`)."""
        return cls(
            application=dataset.application,
            trials=tuple(int(t) for t in dataset.trials),
            processes=tuple(int(p) for p in dataset.processes),
            iterations=tuple(int(i) for i in dataset.iterations),
            n_threads=dataset.n_threads,
            metadata=dict(dataset.metadata),
        )

    # ------------------------------------------------------------------
    def group_indices(self, block: ColumnBlock) -> np.ndarray:
        """Global process-iteration group index of every group of ``block``
        (in ``block.cube`` order), matching the dense aggregation's rows."""
        t = np.searchsorted(self.trials, [sl.trial for sl in block.slices])
        p = np.searchsorted(self.processes, [sl.process for sl in block.slices])
        i = np.searchsorted(self.iterations, block.iterations)
        first = (t * self.n_processes + p) * self.n_iterations
        return (first[:, np.newaxis] + i).ravel()


class AnalysisPass(ABC):
    """One shard-mergeable analysis (see the module docstring).

    Subclasses hold only their *parameters* (thresholds, bin widths, ...) —
    all accumulation state lives in the objects returned by
    :meth:`prepare` — so one pass instance can be shared across campaigns
    and pickled to executor workers.
    """

    #: registered pass name (set by :func:`register_analysis`)
    name: str = "abstract"
    #: one-line description shown by ``--list-analyses``
    title: str = ""

    # ------------------------------------------------------------------
    def prepare(self, context: AnalysisContext) -> Any:
        """A fresh, empty accumulator state for one campaign."""
        return {}

    @abstractmethod
    def accumulate_columns_split(
        self, block: ColumnBlock, context: AnalysisContext
    ) -> list:
        """One partial state per slice of a canonical column block.

        ``block`` (a :class:`~repro.core.aggregation.ColumnBlock`) holds
        one (trial, process) per slice, its ``cube[s]`` that slice's
        process-iteration groups.  Element ``s`` of the returned list is the
        state of slice ``s`` alone; the engine merges these partials in
        serial slice order whatever block they came from, which is what
        makes the products independent of how the campaign was chunked.
        """

    @abstractmethod
    def merge(self, state: Any, other: Any) -> Any:
        """Combine two accumulator states."""

    @abstractmethod
    def finalize(self, state: Any, context: AnalysisContext) -> Any:
        """Turn the merged state into the pass's product."""

    def accumulate(
        self, state: Any, shard: TimingShard, context: AnalysisContext
    ) -> Any:
        """Fold one shard into ``state`` (the shard as its block)."""
        for partial in self.accumulate_columns_split(shard_block(shard), context):
            state = self.merge(state, partial)
        return state

    # ------------------------------------------------------------------
    def run(
        self, shards: Iterable[TimingShard], context: AnalysisContext
    ) -> Any:
        """Convenience serial driver: fold all shards, finalize."""
        state = self.prepare(context)
        for shard in shards:
            state = self.accumulate(state, shard, context)
        return self.finalize(state, context)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_ANALYSES: Registry[Type[AnalysisPass]] = Registry(
    "analysis",
    "analyses",
    accepts=lambda cls: isinstance(cls, type) and issubclass(cls, AnalysisPass),
    expects="an AnalysisPass subclass",
    write_back=True,
)

#: class decorator registering an :class:`AnalysisPass`, bare (under its
#: ``name``) or named (``@register_analysis("percentiles", replace=...)``)
register_analysis = _ANALYSES.register
available_analyses = _ANALYSES.names
unregister_analysis = _ANALYSES.unregister


def get_analysis(name: str) -> AnalysisPass:
    """Instantiate the pass registered under ``name`` (default parameters)."""
    return _ANALYSES.lookup(name)()


def analysis_title(name: str) -> str:
    """The one-line description of a registered pass."""
    return _ANALYSES.lookup(name).title


def resolve_analyses(
    analyses: Union[None, str, AnalysisPass, Iterable[Union[str, AnalysisPass]]],
) -> Tuple[AnalysisPass, ...]:
    """Normalise an ``analyses=`` argument into pass instances.

    ``None`` or ``"all"`` resolves to every registered pass; otherwise a
    name, a pass instance, or any mix of the two in an iterable.
    """
    if analyses is None or analyses == "all":
        return tuple(get_analysis(name) for name in available_analyses())
    if isinstance(analyses, (str, AnalysisPass)):
        analyses = [analyses]
    resolved = []
    for item in analyses:
        resolved.append(item if isinstance(item, AnalysisPass) else get_analysis(item))
    names = [p.name for p in resolved]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate analyses requested: {names}")
    return tuple(resolved)


# the built-in passes register themselves when their module runs: load
# them with the registry, so every query of it sees them
import repro.analysis.passes  # noqa: E402,F401
