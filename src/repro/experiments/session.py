"""The streaming campaign session facade.

:class:`CampaignSession` is the front door of the campaign layer.  One
session wraps one :class:`~repro.experiments.config.CampaignConfig` and
unifies what used to be three module-level functions behind a fluent API::

    >>> from repro.experiments import CampaignConfig, CampaignSession
    >>> session = CampaignSession(CampaignConfig.smoke())
    >>> report = session.run("minife").analyze().report()

Behind ``run()`` the session resolves the configured backend from the
registry (:mod:`repro.experiments.backends`), has the executor
(:mod:`repro.experiments.executor`) produce the backend's units of work —
in-process, or across its pool when ``config.max_workers > 1`` — and
hands back a :class:`CampaignResult` that
keeps the producer's column blocks and merges them into a dense
:class:`~repro.core.timing.TimingDataset` only on demand.  ``stream()``
exposes the same execution as a lazy shard iterator for memory-bounded
consumers.

``analyze()`` drives the streaming analysis engine (:mod:`repro.analysis`):
the campaign's shards or column blocks are folded through the requested
registered passes (all of them by default) — in parallel, with only
per-pass partial states returning from the workers — and the merged
dataset is never materialised.  Both :meth:`CampaignSession.analyze` and
:meth:`CampaignResult.analyze` return the one analysis product type,
:class:`~repro.analysis.AnalysisResults`, which the figure and table
generators read.

With a ``cache_dir``, every campaign is cached on disk as one
:class:`~repro.io.shard_store.ShardStore` directory
(:func:`campaign_store_path`), keyed by a stable hash of everything that
determines the samples (:func:`config_cache_key`).  One function writes the
entries (:func:`write_campaign_store`) and one reads them
(:func:`open_cached_campaign`); the campaign service shares both, so
re-running an identical configuration — in memory, out of core or through
the service — reopens the stored shards instead of recomputing 768 000
samples.
Streaming analyses get their own cache layer: each pass's *finalized
product* is pickled under a key derived from (config hash, pass name, pass
parameters), so repeating an ``analyze()`` call
loads products directly — no campaign execution, no shard folding.  The
session counts ``analysis_cache_hits`` / ``analysis_cache_misses``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.timing import TimingDataset, TimingShard
from repro.experiments.backends import CampaignBackend, get_backend
from repro.experiments.executor import ShardExecutor

#: layout of the pickled analysis products in the cache; part of their
#: key, so a product pickled by a different layout is recomputed, not
#: loaded (2: laggard keys and classes held as arrays)
ANALYSIS_PRODUCT_FORMAT = 2

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.analysis import AnalysisPass, AnalysisResults
    from repro.core.aggregation import ColumnBlock
    from repro.core.report import FeasibilityReport
    from repro.experiments.config import CampaignConfig
    from repro.io.cache_tier import CacheTier
    from repro.io.shard_store import ShardStore


def config_cache_key(config: "CampaignConfig") -> str:
    """Stable hash of everything that determines a campaign's samples.

    Includes the full machine description (clock and noise populations) and
    the scenario's schedule override; excludes knobs that cannot change the
    data, such as ``max_workers`` (a parallel run hits the cache entry of a
    serial one) and the ``scenario`` label.
    """
    payload = {
        "application": config.application,
        "trials": config.trials,
        "processes": config.processes,
        "iterations": config.iterations,
        "threads": config.threads,
        "seed": config.seed,
        "backend": config.backend,
        "schedule": getattr(config, "schedule", None),
        "machine": dataclasses.asdict(config.machine),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def campaign_store_path(
    cache_dir: Optional[Path], config: "CampaignConfig"
) -> Optional[Path]:
    """The campaign cache entry (a shard-store directory) for ``config``.

    Shared by :class:`CampaignSession` and the campaign service
    (:mod:`repro.service`) so both layers hit the same entries.  Returns
    ``None`` when caching is disabled (``cache_dir is None``).
    """
    if cache_dir is None:
        return None
    return cache_dir / f"shards_{config.application}_{config_cache_key(config)}.store"


class CampaignResult:
    """Outcome of one application's campaign, merged on demand.

    Holds either the :class:`~repro.core.aggregation.ColumnBlock` s the
    executor produced (fresh run: one per unit of work, e.g. one per
    ``campaign`` chunk) or a :class:`~repro.io.shard_store.ShardStore`
    (out-of-core run or cache hit).  A block is a cube of compute times
    plus its slice keys, 8 B per sample, so a finished in-memory result
    holds no id columns.
    Iterating yields the shards — lazy views of the blocks that derive
    their id columns on access; :attr:`dataset` merges them — once — into
    the dense :class:`~repro.core.timing.TimingDataset`.  Store-backed
    results keep nothing dense resident: :meth:`iter_shards` streams
    memory-mapped views group by group, and :attr:`n_samples` /
    :attr:`metadata` come straight from the store's manifest.
    """

    def __init__(
        self,
        config: "CampaignConfig",
        *,
        blocks: Optional[Iterable["ColumnBlock"]] = None,
        store: Optional["ShardStore"] = None,
        metadata: Optional[Dict[str, object]] = None,
        from_cache: bool = False,
    ) -> None:
        if (blocks is None) == (store is None):
            raise ValueError("a result holds either column blocks or a store")
        self.config = config
        self.from_cache = from_cache
        self.store = store
        self._blocks = tuple(blocks) if blocks is not None else None
        self._metadata = metadata
        #: the merged :attr:`dataset`, once something asked for it
        self._dataset: Optional[TimingDataset] = None

    # ------------------------------------------------------------------
    @property
    def application(self) -> str:
        return self.config.application

    @property
    def shards(self) -> Tuple[TimingShard, ...]:
        """All of :meth:`iter_shards` at once (a store-backed result's
        tuple keeps the whole store mapped while it is held)."""
        return tuple(self.iter_shards())

    def iter_shards(self) -> Iterator[TimingShard]:
        """Stream the campaign's shards: lazy views of the held blocks, or
        a store-backed result's mmap views one group at a time (the
        bounded working set every out-of-core consumer should use)."""
        if self._blocks is None:
            return self.store.iter_shards()
        return (shard for block in self._blocks for shard in block.iter_shards())

    def iter_column_blocks(self):
        """Stream the campaign as :class:`~repro.core.aggregation.ColumnBlock` s.

        The analysis engine's input
        (:func:`~repro.analysis.engine.run_columnar_analyses`), in serial
        (trial-major) shard order:

        * in-memory results yield the blocks their producer made — one
          block per unit of work (a multi-slice block per ``campaign``
          chunk);
        * store-backed results yield each on-disk group as one zero-copy
          mmap block
          (:meth:`~repro.io.shard_store.ShardStore.iter_column_blocks`).
        """
        if self._blocks is not None:
            yield from self._blocks
        else:
            yield from self.store.iter_column_blocks()

    def __iter__(self) -> Iterator[TimingShard]:
        return self.iter_shards()

    @property
    def dataset(self) -> TimingDataset:
        """The dense timing dataset (shards merged on first access)."""
        if self._dataset is None:
            self._dataset = TimingDataset.merge(
                self.iter_shards(), metadata=self.metadata
            )
        return self._dataset

    @property
    def metadata(self) -> Dict[str, object]:
        """Campaign metadata, without forcing a shard merge."""
        if self._metadata is not None:
            return dict(self._metadata)
        if self.store is not None:
            return self.store.metadata
        return {}

    @property
    def n_samples(self) -> int:
        """Samples in the campaign, counted without merging a dataset."""
        if self._blocks is None:
            return self.store.n_samples
        return sum(block.n_samples for block in self._blocks)

    # ------------------------------------------------------------------
    def analyze(
        self,
        analyses: Union[str, Iterable[Union[str, "AnalysisPass"]]] = "all",
    ) -> "AnalysisResults":
        """Fold this campaign's column blocks through analysis passes.

        Streams :meth:`iter_column_blocks` (no merged dataset is built), so
        the products are bit-identical to
        :func:`~repro.analysis.analyze_dataset` over :attr:`dataset`.  A
        store-backed result's passes hold re-readable handles on the stored
        samples, not the mapped groups, until they finalize.
        """
        from repro.analysis import AnalysisContext, run_columnar_analyses

        context = AnalysisContext.from_config(self.config, metadata=self.metadata)
        return run_columnar_analyses(self.iter_column_blocks(), analyses, context)

    def report(self, include_earlybird: bool = True) -> "FeasibilityReport":
        """Shortcut for ``analyze().report()``."""
        return self.analyze().report(include_earlybird=include_earlybird)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        origin = "cache" if self.from_cache else "run"
        return f"CampaignResult({self.application!r}, from={origin})"


def write_campaign_store(
    path: Path,
    blocks: Union[Iterable["ColumnBlock"], Callable[["ShardStore"], object]],
    metadata: Dict[str, object],
    *,
    tier: Optional["CacheTier"] = None,
    spill_threshold_bytes: Optional[int] = None,
) -> Path:
    """Write one campaign cache entry: a finalized shard store at ``path``.

    ``blocks`` is an iterable of column blocks, or a callable that fills the
    staged store itself (the executor's direct worker-to-store spill,
    :meth:`~repro.experiments.executor.ShardExecutor.run_to_store`).  The
    store is built in a sibling ``*.tmp-*`` directory, finalized with
    ``metadata`` and published atomically over whatever sat at ``path``, so
    a concurrent reader never sees a partially-built store and a race
    between two writers resolves to one winner; the entry is then admitted
    to ``tier``.  ``spill_threshold_bytes`` bounds the write buffer
    (``None`` keeps the store default).  Returns ``path``.
    """
    import shutil
    import threading

    from repro.io.shard_store import (
        DEFAULT_SPILL_THRESHOLD_BYTES,
        ShardStore,
        publish_store,
    )

    threshold = (
        DEFAULT_SPILL_THRESHOLD_BYTES
        if spill_threshold_bytes is None
        else int(spill_threshold_bytes)
    )
    # per-writer staging names: the service's job threads share a pid
    staged_path = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
    )
    retired_path = staged_path.with_name(f"{staged_path.name}.old")
    shutil.rmtree(staged_path, ignore_errors=True)
    try:
        staged = ShardStore.create(staged_path, spill_threshold_bytes=threshold)
        if callable(blocks):
            blocks(staged)
        else:
            for block in blocks:
                staged.append_block(block)
        staged.finalize(metadata)
        # move the previous entry aside with one atomic rename rather than
        # deleting it in place, where a racing writer's fresh entry could
        # be half-deleted
        try:
            os.rename(path, retired_path)
        except FileNotFoundError:
            pass
        publish_store(staged_path, path)
    finally:
        shutil.rmtree(staged_path, ignore_errors=True)
        shutil.rmtree(retired_path, ignore_errors=True)
    if tier is not None:
        tier.admit(path)
    return path


def open_cached_campaign(
    path: Optional[Path],
    config: "CampaignConfig",
    *,
    tier: Optional["CacheTier"] = None,
) -> Optional[CampaignResult]:
    """Look up one campaign cache entry: the store at ``path`` as a result.

    Returns ``None`` on a miss.  An entry that cannot be served — an
    unreadable manifest, a foreign format version (a store written before
    format v2), an incomplete store, a missing, truncated or corrupted
    group file (:meth:`ShardStore.verify` checks sizes and crc32s) — is a
    miss too, and is removed so the caller recomputes and rewrites it.  A hit
    bumps the entry's LRU clock in ``tier`` and comes back as a
    store-backed ``CampaignResult(from_cache=True)``.  The cache key
    deliberately excludes the scenario label (it cannot change the
    samples), so the entry may carry the label of whichever scenario
    populated it: the hit is re-stamped with ``config``'s label.
    """
    if path is None or not path.exists():
        return None
    import shutil

    from repro.io.shard_store import ShardStore

    try:
        store = ShardStore.open(path).verify()
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        # unreadable or malformed on disk: heal by recomputing
        shutil.rmtree(path, ignore_errors=True)
        return None
    if tier is not None:
        tier.touch(path)
    metadata = store.metadata
    metadata.pop("scenario", None)
    scenario = getattr(config, "scenario", None)
    if scenario is not None:
        metadata["scenario"] = scenario
    return CampaignResult(config, store=store, metadata=metadata, from_cache=True)


class CampaignSession:
    """Fluent, cache-aware driver of one or more measurement campaigns.

    Parameters
    ----------
    config:
        Base campaign configuration.  ``run("minimd")`` retargets it with
        :meth:`~repro.experiments.config.CampaignConfig.for_application`.
    cache_dir:
        Directory of the config-hash-keyed campaign cache (one shard store
        per configuration, see :func:`campaign_store_path`); ``None``
        (default) disables caching.
    cache_max_bytes:
        Size budget of the cache tier: every write is admitted through a
        :class:`~repro.io.cache_tier.CacheTier` that LRU-evicts entries over
        budget.  ``None`` defers to ``$REPRO_CACHE_MAX_BYTES`` and, failing
        that, leaves the tier unbounded.
    executor_mode:
        Worker-pool flavour for ``max_workers > 1``: ``"process"`` (default)
        or ``"thread"``.
    """

    def __init__(
        self,
        config: "CampaignConfig",
        *,
        cache_dir: Optional[Union[str, Path]] = None,
        cache_max_bytes: Optional[int] = None,
        executor_mode: str = "process",
    ) -> None:
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.executor_mode = executor_mode
        self.cache_tier: Optional["CacheTier"] = None
        if self.cache_dir is not None:
            from repro.io.cache_tier import CacheTier

            self.cache_tier = CacheTier(self.cache_dir, max_bytes=cache_max_bytes)
        self._results: Dict[str, CampaignResult] = {}
        #: finalized-pass-product cache counters (only ticked when a
        #: ``cache_dir`` is configured; see :meth:`analyze`)
        self.analysis_cache_hits = 0
        self.analysis_cache_misses = 0

    # ------------------------------------------------------------------
    # configuration plumbing
    # ------------------------------------------------------------------
    def config_for(self, application: Optional[str] = None) -> "CampaignConfig":
        """The session config, retargeted at ``application`` if given."""
        if application is None or application == self.config.application:
            return self.config
        return self.config.for_application(application)

    def backend_for(self, application: Optional[str] = None) -> CampaignBackend:
        return get_backend(self.config_for(application).backend)

    def cache_key(self, application: Optional[str] = None) -> str:
        return config_cache_key(self.config_for(application))

    def _store_path(self, config: "CampaignConfig") -> Optional[Path]:
        return campaign_store_path(self.cache_dir, config)

    def _executor(self) -> ShardExecutor:
        return ShardExecutor(mode=self.executor_mode)

    # ------------------------------------------------------------------
    # streaming-analysis product cache
    # ------------------------------------------------------------------
    @classmethod
    def _describe_param(cls, value: object, _depth: int = 0) -> Optional[str]:
        """Stable, collision-resistant description of one pass parameter.

        Arrays are digested over their full contents (``repr`` would elide
        large arrays to ``...``, colliding distinct parameters).  Objects
        without a custom ``__repr__`` — e.g. the earlybird pass's
        ``EarlyBirdModel`` — are described from their class name and
        attributes (``__dict__`` or ``__slots__``) instead of the default
        ``<... object at 0x...>`` repr, whose embedded memory address would
        change every run and make the cross-session cache permanently miss.
        Everything else round-trips through ``repr``, which is stable for
        the primitive thresholds/widths the built-in passes hold.

        Returns ``None`` when no stable description exists (an attribute-less
        default-repr object, or pathological nesting): the caller then skips
        caching for that pass — an honest recompute beats both a permanent
        silent miss and a key collision.
        """
        import numpy as np

        if isinstance(value, np.ndarray):
            digest = hashlib.sha256(np.ascontiguousarray(value).tobytes())
            return f"ndarray{value.shape}:{value.dtype}:{digest.hexdigest()}"
        if _depth < 6 and isinstance(value, (list, tuple, set, frozenset)):
            items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
            parts = [cls._describe_param(item, _depth + 1) for item in items]
            if any(part is None for part in parts):
                return None
            return f"{type(value).__qualname__}[{';'.join(parts)}]"
        if _depth < 6 and isinstance(value, dict):
            parts = []
            for name, item in sorted(value.items(), key=lambda kv: repr(kv[0])):
                described = cls._describe_param(item, _depth + 1)
                if described is None:
                    return None
                parts.append(f"{name!r}:{described}")
            return f"dict{{{';'.join(parts)}}}"
        if type(value).__repr__ is not object.__repr__:
            return repr(value)
        attrs = getattr(value, "__dict__", None)
        if attrs is None:
            slots = [
                name
                for klass in type(value).__mro__
                for name in (getattr(klass, "__slots__", ()) or ())
            ]
            if not slots:
                return None
            attrs = {name: getattr(value, name) for name in slots if hasattr(value, name)}
        if _depth >= 6:
            return None
        parts = []
        for name, attr in sorted(attrs.items()):
            described = cls._describe_param(attr, _depth + 1)
            if described is None:
                return None
            parts.append(f"{name}={described}")
        return f"{type(value).__qualname__}({';'.join(parts)})"

    def _analysis_cache_path(
        self, config: "CampaignConfig", analysis_pass: "AnalysisPass"
    ) -> Optional[Path]:
        """Cache file of one pass's finalized product, or ``None`` without a
        ``cache_dir``.  The key hashes everything that determines the
        product: the campaign's sample-determining config hash, the pass
        name, the pass's parameters (its instance attributes) and
        :data:`ANALYSIS_PRODUCT_FORMAT`."""
        if self.cache_dir is None:
            return None
        descriptions = []
        for name, value in sorted(vars(analysis_pass).items()):
            described = self._describe_param(value)
            if described is None:
                import warnings

                warnings.warn(
                    f"analysis pass {analysis_pass.name!r}: parameter {name!r} "
                    f"({type(value).__qualname__}) has no stable description "
                    "(define __repr__ on it); skipping the product cache for "
                    "this pass",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return None
            descriptions.append(f"{name}={described}")
        params = ";".join(descriptions)
        blob = "|".join(
            (
                config_cache_key(config),
                analysis_pass.name,
                params,
                f"format={ANALYSIS_PRODUCT_FORMAT}",
            )
        )
        key = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
        return (
            self.cache_dir
            / f"analysis_{config.application}_{analysis_pass.name}_{key}.pkl"
        )

    def _load_analysis_product(self, path: Optional[Path]) -> Tuple[bool, object]:
        if path is None or not path.exists():
            return False, None
        import pickle

        try:
            with path.open("rb") as handle:
                return True, pickle.load(handle)
        except Exception:  # corrupt/stale entry: recompute and overwrite
            return False, None

    def _store_analysis_product(self, path: Optional[Path], product: object) -> None:
        if path is None:
            return
        import pickle

        path.parent.mkdir(parents=True, exist_ok=True)
        # temp + replace like every other cache write: a crashed writer
        # cannot leave a truncated pickle at the final path
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(product, handle)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        if self.cache_tier is not None:
            self.cache_tier.admit(path)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def cached(self, application: Optional[str] = None) -> Optional[CampaignResult]:
        """Load one application's campaign from the result cache.

        Returns a store-backed result (see :func:`open_cached_campaign`),
        or ``None`` on a miss (or without a ``cache_dir``).
        """
        config = self.config_for(application)
        result = open_cached_campaign(
            self._store_path(config), config, tier=self.cache_tier
        )
        if result is not None:
            self._results[config.application] = result
        return result

    def run(
        self,
        application: Optional[str] = None,
        *,
        use_cache: bool = True,
        store: Union[None, bool, str, Path, "ShardStore"] = None,
        spill_threshold_bytes: Optional[int] = None,
    ) -> CampaignResult:
        """Run (or load from cache) one application's campaign.

        With a ``cache_dir`` every configuration has one cache entry, a
        shard store at :func:`campaign_store_path`: a miss writes it, and
        with ``use_cache`` a hit reopens it as a store-backed result
        (``from_cache=True``) whichever ``store`` mode wrote or asks for it.

        ``store`` only chooses the shape of a freshly run result:

        * ``None`` (default) — in-memory run; the result holds the column
          blocks the executor produced.
        * ``True`` — out-of-core run: shards spill into the cache entry
          (``cache_dir`` required) as the executor produces them instead of
          accumulating in memory, and the returned result is store-backed
          (stream it with :meth:`CampaignResult.iter_shards`).
        * a path — the same, into an explicit store directory (a complete
          store there is reused under ``use_cache``, anything else is
          rebuilt).
        * a :class:`~repro.io.shard_store.ShardStore` — caller-managed;
          shards are appended and the store finalized, nothing published.

        ``spill_threshold_bytes`` bounds the store's in-memory buffer (the
        RAM-budget knob); ``None`` keeps the store default.
        """
        config = self.config_for(application)
        backend = get_backend(config.backend)
        if store is not None:
            return self._run_to_store(
                config,
                backend,
                store,
                use_cache=use_cache,
                spill_threshold_bytes=spill_threshold_bytes,
            )
        if use_cache:
            result = self.cached(application)
            if result is not None:
                return result
        blocks = self._executor().iter_blocks(backend, config)
        result = CampaignResult(
            config, blocks=blocks, metadata=backend.metadata(config)
        )
        path = self._store_path(config)
        if path is not None:
            write_campaign_store(
                path, result.iter_column_blocks(), result.metadata, tier=self.cache_tier
            )
        self._results[config.application] = result
        return result

    def _run_to_store(
        self,
        config: "CampaignConfig",
        backend: CampaignBackend,
        store: Union[bool, str, Path, "ShardStore"],
        *,
        use_cache: bool,
        spill_threshold_bytes: Optional[int],
    ) -> CampaignResult:
        """The out-of-core arm of :meth:`run` (see its ``store`` docs)."""
        from repro.io.shard_store import ShardStore

        if isinstance(store, ShardStore):
            # caller-managed store: fill, finalize, wrap
            self._executor().run_to_store(backend, config, store)
            store.finalize(backend.metadata(config))
            result = CampaignResult(config, store=store)
            self._results[config.application] = result
            return result

        if store is True:
            path = self._store_path(config)
            if path is None:
                raise ValueError(
                    "run(store=True) needs a cache_dir to place the store under"
                )
        else:
            path = Path(store)
        result = (
            open_cached_campaign(path, config, tier=self.cache_tier)
            if use_cache
            else None
        )
        if result is None:
            write_campaign_store(
                path,
                lambda staged: self._executor().run_to_store(backend, config, staged),
                backend.metadata(config),
                tier=self.cache_tier,
                spill_threshold_bytes=spill_threshold_bytes,
            )
            result = CampaignResult(config, store=ShardStore.open(path))
        self._results[config.application] = result
        return result

    def stream(self, application: Optional[str] = None) -> Iterator[TimingShard]:
        """Lazily yield the campaign's shards in serial (trial-major) order.

        Yields lazy views of the executor's column blocks without
        retaining earlier blocks, so paper-scale campaigns can be consumed
        with one unit of work (a shard, or a ``campaign`` chunk) resident
        at a time.  Bypasses the result cache.
        """
        config = self.config_for(application)
        backend = get_backend(config.backend)
        for block in self._executor().iter_blocks(backend, config):
            yield from block.iter_shards()

    def run_all(
        self,
        applications: Optional[Sequence[str]] = None,
        *,
        use_cache: bool = True,
    ) -> Dict[str, CampaignResult]:
        """Run the campaign for several applications (all three by default)."""
        if applications is None:
            from repro.apps import APPLICATIONS

            applications = sorted(APPLICATIONS)
        return {
            name: self.run(name, use_cache=use_cache) for name in applications
        }

    # ------------------------------------------------------------------
    # completed results
    # ------------------------------------------------------------------
    @property
    def results(self) -> Dict[str, CampaignResult]:
        """Results completed by this session, keyed by application."""
        return dict(self._results)

    def __getitem__(self, application: str) -> CampaignResult:
        return self._results[application]

    def __contains__(self, application: str) -> bool:
        return application in self._results

    def dataset(self, application: Optional[str] = None) -> TimingDataset:
        """Dense dataset for ``application`` (running the campaign if needed)."""
        config = self.config_for(application)
        result = self._results.get(config.application)
        if result is None:
            result = self.run(application)
        return result.dataset

    def analyze(
        self,
        application: Optional[str] = None,
        *,
        analyses: Union[str, Iterable[Union[str, "AnalysisPass"]]] = "all",
    ) -> "AnalysisResults":
        """Analyse ``application``'s campaign through the streaming engine.

        ``analyses`` names registered passes, pass instances, or ``"all"``
        (default).  If this session already ran the application's campaign,
        its result's column blocks are folded
        (:meth:`CampaignResult.analyze`); otherwise the campaign runs fused
        with the analysis — per-shard accumulation happens in the executor
        workers (``config.max_workers``), only the per-pass partial states
        are merged in the parent, and neither a merged dataset nor a session
        result is built (the percentiles/normality partials then carry the
        samples; a store-backed result carries re-readable handles instead).
        """
        from repro.analysis import (
            AnalysisContext,
            AnalysisResults,
            resolve_analyses,
            run_campaign_analyses,
        )

        config = self.config_for(application)
        result = self._results.get(config.application)
        passes = resolve_analyses(analyses)
        products: Dict[str, object] = {}
        missing = list(passes)
        if self.cache_dir is not None:
            missing = []
            for p in passes:
                hit, product = self._load_analysis_product(
                    self._analysis_cache_path(config, p)
                )
                if hit:
                    products[p.name] = product
                    self.analysis_cache_hits += 1
                else:
                    missing.append(p)
                    self.analysis_cache_misses += 1
        context: Optional[AnalysisContext] = None
        if missing:
            if result is not None:
                # the campaign already ran in this session — fold its
                # columns through the passes instead of re-executing it
                fresh = result.analyze(missing)
            else:
                fresh = run_campaign_analyses(
                    get_backend(config.backend),
                    config,
                    missing,
                    executor=self._executor(),
                )
            context = fresh.context
            for p in missing:
                products[p.name] = fresh[p.name]
                self._store_analysis_product(
                    self._analysis_cache_path(config, p), fresh[p.name]
                )
        if context is None:
            # every product came from the cache — rebuild the campaign
            # frame (cheap; no samples involved) for report assembly
            metadata = (
                result.metadata
                if result is not None
                else get_backend(config.backend).metadata(config)
            )
            context = AnalysisContext.from_config(config, metadata=metadata)
        ordered = {p.name: products[p.name] for p in passes}
        return AnalysisResults(ordered, context)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CampaignSession({self.config.application!r}, "
            f"backend={self.config.backend!r}, "
            f"max_workers={self.config.max_workers}, "
            f"results={sorted(self._results)})"
        )
