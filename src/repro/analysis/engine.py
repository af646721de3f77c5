"""The streaming analysis engine: fold campaign shards through passes.

Two drivers are provided:

* :func:`run_analyses` — fold an existing shard iterable (e.g.
  ``CampaignSession.stream()`` or an in-memory list) through a set of
  passes serially.
* :func:`run_campaign_analyses` — execute a campaign *and* analyse it in
  one parallel pass: each executor worker runs its shard and immediately
  folds it into fresh per-pass accumulator states, returning only the
  partials to the parent; the merged dataset is never materialised.  Note
  that in exact mode the ``percentiles``/``normality`` partials carry the
  shard's sample values (exact order statistics need them), so truly
  bounded memory requires ``exact=False``.

Both drivers build the same reduction: one partial state per shard, merged
in the serial (trial-major) shard order.  Because partials are merged in a
deterministic order — and the exact-mode accumulators key their segments by
shard position anyway — the analysis results are bit-identical whether the
campaign ran serially, on a thread pool or on a process pool.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.base import (
    AnalysisContext,
    AnalysisPass,
    resolve_analyses,
)
from repro.analysis.report import assemble_feasibility_report
from repro.core.timing import TimingShard

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


class ShardAnalyzer:
    """Picklable per-shard mapper: fold one shard into fresh pass states.

    Instances travel to executor workers (passes hold only parameters, the
    context is a frozen dataclass), so the reduction's map step runs where
    the shard was produced.
    """

    def __init__(
        self, passes: Sequence[AnalysisPass], context: AnalysisContext
    ) -> None:
        self.passes = tuple(passes)
        self.context = context

    def __call__(self, shard: TimingShard) -> Dict[str, Any]:
        from repro.core.aggregation import release_shard_groups

        try:
            return {
                p.name: p.accumulate(p.prepare(self.context), shard, self.context)
                for p in self.passes
            }
        finally:
            # every pass has folded this shard — drop its grouping memo now
            # rather than waiting for the shard itself to be collected (the
            # session may keep its shards cached)
            release_shard_groups(shard)


class ColumnarAnalyzer:
    """Picklable block mapper: per-shard partials from one column block.

    The columnar analogue of :class:`ShardAnalyzer`: instead of folding one
    shard at a time it hands each pass a whole multi-shard column block
    (``columns`` plus one :class:`~repro.core.aggregation.ShardSlice` per
    shard) and transposes the per-pass split results into one
    ``{pass_name: state}`` partial per shard.  Those partials feed the same
    merge fold as the shard-streaming path — the structural guarantee behind
    the bit-identity contract.
    """

    def __init__(
        self, passes: Sequence[AnalysisPass], context: AnalysisContext
    ) -> None:
        self.passes = tuple(passes)
        self.context = context

    def __call__(self, columns, slices) -> list:
        from repro.core.aggregation import hold_block_groups, release_block_groups

        hold_block_groups(columns, slices)
        try:
            split = {
                p.name: p.accumulate_columns_split(columns, slices, self.context)
                for p in self.passes
            }
        finally:
            # every pass has folded this block — drop its grouping memo so
            # the block's matrix view does not outlive the call
            release_block_groups(columns)
        return [
            {name: states[k] for name, states in split.items()}
            for k in range(len(slices))
        ]


def run_columnar_analyses(
    blocks: Iterable[Tuple[Mapping[str, Any], Sequence[Any]]],
    analyses: Union[None, str, Iterable[Union[str, AnalysisPass]]],
    context: AnalysisContext,
) -> AnalysisResults:
    """Fold an iterable of ``(columns, slices)`` blocks through passes.

    Blocks must arrive in serial (trial-major) shard order, like the shard
    iterables of :func:`run_analyses` — the per-shard partials of each block
    then merge in exactly the order the shard-streaming path would have
    produced, keeping sketch states identical as well.
    """
    passes = resolve_analyses(analyses)
    mapper = ColumnarAnalyzer(passes, context)
    partials = (partial for block in blocks for partial in mapper(*block))
    return _reduce_partials(passes, partials, context)


def _reduce_partials(
    passes: Sequence[AnalysisPass],
    partials: Iterable[Dict[str, Any]],
    context: AnalysisContext,
) -> AnalysisResults:
    """Merge per-shard partial states (in the given order) and finalize."""
    merged: Optional[Dict[str, Any]] = None
    for partial in partials:
        if merged is None:
            merged = partial
        else:
            for p in passes:
                merged[p.name] = p.merge(merged[p.name], partial[p.name])
    if merged is None:
        raise ValueError("no shards to analyze")
    products = {p.name: p.finalize(merged[p.name], context) for p in passes}
    return AnalysisResults(products, context)


def run_analyses(
    shards: Iterable[TimingShard],
    analyses: Union[None, str, Iterable[Union[str, AnalysisPass]]],
    context: AnalysisContext,
) -> AnalysisResults:
    """Fold an iterable of shards through the requested passes (serial)."""
    passes = resolve_analyses(analyses)
    mapper = ShardAnalyzer(passes, context)
    return _reduce_partials(passes, (mapper(shard) for shard in shards), context)


def run_campaign_analyses(
    backend: "CampaignBackend",
    config: "CampaignConfig",
    analyses: Union[None, str, Iterable[Union[str, AnalysisPass]]],
    *,
    context: Optional[AnalysisContext] = None,
    executor: Optional["ShardExecutor"] = None,
    exact: bool = True,
) -> AnalysisResults:
    """Execute a campaign and stream its shards through analysis passes.

    Backends with a chunk-block path (the campaign tensor backend) take the
    fused columnar route: each chunk's column block folds into per-pass
    partials right where it was produced —
    :meth:`~repro.experiments.executor.ShardExecutor.map_blocks` — so with
    ``config.max_workers > 1`` only partials cross the process boundary and
    no shards are ever assembled.  Everything else goes through
    :meth:`~repro.experiments.executor.ShardExecutor.map_shards`, which
    likewise accumulates worker-side.  Both routes reduce one partial per
    shard in serial order, so their results are bit-identical.
    """
    from repro.experiments.executor import ShardExecutor

    passes = resolve_analyses(analyses)
    if context is None:
        context = AnalysisContext.from_config(
            config, exact=exact, metadata=backend.metadata(config)
        )
    if executor is None:
        executor = ShardExecutor()
    blocks = None
    if hasattr(executor, "map_blocks"):
        blocks = executor.map_blocks(
            backend, config, ColumnarAnalyzer(passes, context)
        )
    if blocks is not None:
        partials = (partial for chunk in blocks for partial in chunk)
        return _reduce_partials(passes, partials, context)
    mapper = ShardAnalyzer(passes, context)
    partials = (
        partial for _, partial in executor.map_shards(backend, config, mapper)
    )
    return _reduce_partials(passes, partials, context)
