"""The streaming analysis engine: fold campaign data through passes.

Every driver folds :class:`~repro.core.aggregation.ColumnBlock` s with
:class:`ColumnarAnalyzer` and reduces the resulting per-slice partials:

* :func:`run_columnar_analyses` — fold blocks: store groups, or
  :meth:`CampaignResult.iter_column_blocks
  <repro.experiments.session.CampaignResult.iter_column_blocks>`, which
  serves an in-memory campaign one block per ``campaign`` chunk.
* :func:`analyze_dataset` — fold a materialised
  :class:`~repro.core.timing.TimingDataset` as one block
  (:func:`~repro.core.aggregation.canonical_block` of its columns, one
  declared slice per (trial, process)).
* :func:`run_campaign_analyses` — execute a campaign *and* analyse it in
  one parallel pass: each executor worker folds the block it produced into
  per-pass partials, returning only those to the parent; the
  merged dataset is never materialised.  The ``percentiles``/``normality``
  partials carry their slices' samples (exact order statistics need them),
  so such a run holds every sample, as the in-memory path does.  Bounded
  memory means analysing through the shard store: store-backed partials
  hold re-readable handles instead
  (:class:`~repro.io.shard_store.StoredRows`).

All drivers build the same reduction: one partial state per (trial,
process) slice, merged in the serial (trial-major) order.  Because partials
are merged in a deterministic order — and the accumulators key their
segments by slice position anyway — the analysis results are
bit-identical whether the campaign ran serially, on a thread pool or on a
process pool.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.analysis.base import (
    AnalysisContext,
    AnalysisPass,
    resolve_analyses,
)
from repro.analysis.report import assemble_feasibility_report
from repro.core.aggregation import ColumnBlock, ShardSlice, canonical_block
from repro.core.timing import TimingDataset

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.core.report import FeasibilityReport
    from repro.experiments.backends import CampaignBackend
    from repro.experiments.config import CampaignConfig
    from repro.experiments.executor import ShardExecutor


class AnalysisResults(Mapping):
    """Finalized products of one streaming analysis run, keyed by pass name.

    >>> results = session.analyze("minife", analyses=["percentiles", "laggards"])
    >>> results["percentiles"].mean_median()
    >>> results.report(include_earlybird=False)   # needs the report passes
    """

    def __init__(
        self, products: Dict[str, Any], context: AnalysisContext
    ) -> None:
        self._products = dict(products)
        self.context = context

    def __getitem__(self, name: str) -> Any:
        return self._products[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._products)

    def __len__(self) -> int:
        return len(self._products)

    @property
    def application(self) -> str:
        return self.context.application

    def report(self, include_earlybird: bool = True) -> "FeasibilityReport":
        """Assemble the per-application feasibility report from the products."""
        return assemble_feasibility_report(
            self, self.context, include_earlybird=include_earlybird
        )

    def as_payload(self) -> Dict[str, Any]:
        """JSON-friendly view of every product, keyed by pass name.

        The shape the CLI writes to ``analyses_<app>.json`` and the service
        serves from ``GET /jobs/<id>/analyses``.
        """
        return {
            name: product_payload(self._products[name])
            for name in sorted(self._products)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AnalysisResults({self.application!r}, "
            f"passes={sorted(self._products)})"
        )


def product_payload(product: Any) -> Any:
    """JSON-friendly view of one analysis-pass product.

    Products expose ``to_dict``/``as_dict`` (preferred), are plain dicts
    already, or fall back to their ``repr``.
    """
    for attr in ("to_dict", "as_dict"):
        method = getattr(product, attr, None)
        if callable(method):
            return method()
    if isinstance(product, dict):
        return product
    return repr(product)


class ColumnarAnalyzer:
    """Picklable block mapper: per-slice partials from one column block.

    Hands the block to every pass and transposes the per-pass split
    results into one ``{pass_name: state}`` partial per (trial, process)
    slice.
    Instances travel to executor workers (passes hold only parameters, the
    context is a frozen dataclass), so the map step runs where the block
    was produced.
    """

    def __init__(
        self, passes: Sequence[AnalysisPass], context: AnalysisContext
    ) -> None:
        self.passes = tuple(passes)
        self.context = context

    def __call__(self, block: ColumnBlock) -> list:
        # fold a fresh handle on the block: the passes' shared sort is
        # cached on it and dies with this call, not with the caller's block
        block = dataclasses.replace(block)
        split = {
            p.name: p.accumulate_columns_split(block, self.context)
            for p in self.passes
        }
        return [
            {name: states[k] for name, states in split.items()}
            for k in range(len(block.slices))
        ]


def run_columnar_analyses(
    blocks: Iterable[ColumnBlock],
    analyses: Union[None, str, Iterable[Union[str, AnalysisPass]]],
    context: AnalysisContext,
) -> AnalysisResults:
    """Fold an iterable of column blocks through passes.

    Blocks must arrive in serial (trial-major) shard order (a campaign
    result's or a store's :meth:`iter_column_blocks`, or
    ``CampaignSession.stream()``) — the per-slice partials of each block
    then merge in serial order, so the states do not depend on how the
    campaign was chunked into blocks.
    """
    passes = resolve_analyses(analyses)
    mapper = ColumnarAnalyzer(passes, context)
    partials = (partial for block in blocks for partial in mapper(block))
    return _reduce_partials(passes, partials, context)


def _dataset_block(dataset: TimingDataset) -> ColumnBlock:
    """The dataset as one canonical column block: one declared slice per
    (trial, process), in serial order."""
    columns = {name: dataset.column(name) for name in dataset.columns}
    key = columns["trial"].astype(np.int64) * (int(columns["process"].max()) + 1)
    key += columns["process"]
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key, kind="stable")
        columns = {name: arr[order] for name, arr in columns.items()}
        key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    stops = np.r_[starts[1:], len(key)]
    trial, process = columns["trial"], columns["process"]
    slices = [
        ShardSlice(int(trial[start]), int(process[start]), int(start), int(stop))
        for start, stop in zip(starts, stops)
    ]
    return canonical_block(columns, slices)


def analyze_dataset(
    dataset: TimingDataset,
    analyses: Union[None, str, Iterable[Union[str, AnalysisPass]]] = "all",
) -> AnalysisResults:
    """Fold a materialised dataset through the requested passes.

    The dataset is one canonical column block (a stable sort by trial and
    process, one slice per (trial, process)), so the products are
    bit-identical to folding the same campaign's blocks or store groups.

    >>> results = analyze_dataset(dataset)
    >>> results["percentiles"].mean_median()
    >>> results.report()
    """
    block = _dataset_block(dataset)
    context = AnalysisContext.from_dataset(dataset)
    return run_columnar_analyses([block], analyses, context)


def _reduce_partials(
    passes: Sequence[AnalysisPass],
    partials: Iterable[Dict[str, Any]],
    context: AnalysisContext,
) -> AnalysisResults:
    """Merge per-slice partial states (in the given order) and finalize."""
    merged: Optional[Dict[str, Any]] = None
    for partial in partials:
        if merged is None:
            merged = partial
        else:
            for p in passes:
                merged[p.name] = p.merge(merged[p.name], partial[p.name])
    if merged is None:
        raise ValueError("no shards to analyze")
    # each state is dropped once its product is built, so the finalizes
    # after it do not hold it
    products = {p.name: p.finalize(merged.pop(p.name), context) for p in passes}
    return AnalysisResults(products, context)


def run_campaign_analyses(
    backend: "CampaignBackend",
    config: "CampaignConfig",
    analyses: Union[None, str, Iterable[Union[str, AnalysisPass]]],
    *,
    context: Optional[AnalysisContext] = None,
    executor: Optional["ShardExecutor"] = None,
) -> AnalysisResults:
    """Execute a campaign and stream its column blocks through analysis passes.

    Each unit's block (a ``campaign`` chunk, or one shard of the per-shard
    backends) folds into per-pass partials right where it was produced —
    :meth:`~repro.experiments.executor.ShardExecutor.map_blocks` — so with
    ``config.max_workers > 1`` only partials cross the process boundary.
    The partials, one per (trial, process), reduce in serial order, so the
    result does not depend on the chunking or the worker count.
    """
    from repro.experiments.executor import ShardExecutor

    passes = resolve_analyses(analyses)
    if context is None:
        context = AnalysisContext.from_config(
            config, metadata=backend.metadata(config)
        )
    if executor is None:
        executor = ShardExecutor()
    mapper = ColumnarAnalyzer(passes, context)
    blocks = executor.map_blocks(backend, config, mapper)
    partials = (partial for block in blocks for partial in block)
    return _reduce_partials(passes, partials, context)
