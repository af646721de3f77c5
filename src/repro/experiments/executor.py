"""Parallel sharded campaign execution.

:class:`ShardExecutor` fans a backend's shards out across a
:mod:`concurrent.futures` worker pool.  Every worker rebuilds the campaign's
:class:`~repro.sim.random.RandomStreams` from the root seed and re-derives its
shard's streams *by name*, so the draws are independent of which worker runs
which shard and of completion order — a parallel campaign is bit-identical to
a serial one.

Two pool modes are supported:

* ``"process"`` (default) — a :class:`~concurrent.futures.ProcessPoolExecutor`
  using the cheap ``fork`` start method where available.  This is the mode
  that actually scales the NumPy-light per-iteration Python work across
  cores.
* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; useful
  where processes are unavailable (restricted sandboxes) or for backends
  whose shards release the GIL.

``max_workers <= 1`` (or a single shard) short-circuits to plain serial
execution with no pool overhead.
"""

from __future__ import annotations

import itertools
import multiprocessing
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Type

from repro.core.timing import TimingDataset, TimingShard
from repro.sim.random import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.experiments.backends import CampaignBackend, ShardSpec
    from repro.experiments.config import CampaignConfig
    from repro.io.shard_store import ShardStore

_MODES = ("process", "thread")


def _run_shard_task(
    backend_cls: Type["CampaignBackend"], config: "CampaignConfig", spec: "ShardSpec"
) -> TimingShard:
    """Worker entry point (module-level so process pools can pickle it).

    Receives the backend *class* rather than a registry name: unpickling the
    class in a spawn-started worker imports its defining module, so
    user-registered backends work in process pools on platforms without
    ``fork``.
    """
    return backend_cls().run_shard(config, spec, RandomStreams(config.seed))


def _map_shard_task(
    backend_cls: Type["CampaignBackend"],
    config: "CampaignConfig",
    spec: "ShardSpec",
    mapper,
):
    """Worker entry point for :meth:`ShardExecutor.map_shards`.

    Runs the shard *and* applies ``mapper`` to it inside the worker, so only
    the mapped result (e.g. small analysis-pass partial states) travels back
    to the parent — the shard's sample arrays never cross the process
    boundary.
    """
    return mapper(_run_shard_task(backend_cls, config, spec))


class ShardExecutor:
    """Runs a backend's shards, serially or on a worker pool.

    Parameters
    ----------
    max_workers:
        Pool size; ``None`` defers to ``config.max_workers`` at run time and
        ``1`` forces serial execution.
    mode:
        ``"process"`` or ``"thread"`` (see module docstring).
    """

    def __init__(
        self, max_workers: Optional[int] = None, *, mode: str = "process"
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.max_workers = max_workers
        self.mode = mode

    # ------------------------------------------------------------------
    def _resolve_workers(self, config: "CampaignConfig", n_shards: int) -> int:
        workers = (
            self.max_workers
            if self.max_workers is not None
            else getattr(config, "max_workers", 1) or 1
        )
        return max(1, min(int(workers), n_shards))

    def _make_pool(self, workers: int):
        if self.mode == "thread":
            return ThreadPoolExecutor(max_workers=workers)
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = None
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)

    # ------------------------------------------------------------------
    def _iter_mapped(
        self, backend: "CampaignBackend", config: "CampaignConfig", mapper
    ) -> Iterator[tuple]:
        """Shared driver behind :meth:`iter_shards` and :meth:`map_shards`:
        run every shard (applying ``mapper`` where it was produced when one
        is given) and yield ``(spec, result)`` in serial order.

        With a pool, all shards are submitted through a bounded in-flight
        window — keeping the pool saturated (plus slack for head-of-line
        blocking) without retaining every completed result, so a slow
        consumer holds at most ~2*workers results, not the whole campaign —
        and yielded in submission order as they complete.
        """
        specs = backend.shard_specs(config)
        workers = self._resolve_workers(config, len(specs))
        iter_parallel = getattr(backend, "iter_shards_parallel", None)
        if iter_parallel is not None and workers > 1:
            # chunk fan-out: the backend's unit of work is a whole shard
            # chunk, which it folds on its own worker pool and streams back
            # shard by shard in trial-major order (bit-identical to serial —
            # the shard-keyed draw streams guarantee it)
            parallel = iter_parallel(config, workers=workers, mode=self.mode)
            for spec, shard in zip(specs, parallel):
                yield spec, (shard if mapper is None else mapper(shard))
            return
        if workers <= 1:
            # defer to the backend's own serial driver so overrides of
            # iter_shards (e.g. replaying pre-recorded shards) are honoured
            for spec, shard in zip(specs, backend.iter_shards(config)):
                yield spec, (shard if mapper is None else mapper(shard))
            return
        backend_cls = type(backend)

        def submit(pool, spec):
            if mapper is None:
                return pool.submit(_run_shard_task, backend_cls, config, spec)
            return pool.submit(_map_shard_task, backend_cls, config, spec, mapper)

        with self._make_pool(workers) as pool:
            spec_iter = iter(specs)
            pending = deque(
                (spec, submit(pool, spec))
                for spec in itertools.islice(spec_iter, 2 * workers)
            )
            try:
                while pending:
                    spec, future = pending.popleft()
                    result = future.result()
                    for next_spec in itertools.islice(spec_iter, 1):
                        pending.append((next_spec, submit(pool, next_spec)))
                    yield spec, result
            finally:
                for _, future in pending:
                    future.cancel()

    def iter_shards(
        self,
        backend: "CampaignBackend",
        config: "CampaignConfig",
        *,
        on_shard: Optional[Callable[[TimingShard], None]] = None,
        store: Optional["ShardStore"] = None,
    ) -> Iterator[TimingShard]:
        """Yield the campaign's shards in serial (trial-major) order.

        **Incremental contract**: each shard is yielded as soon as it is
        available — after its own computation, *before* later shards have
        run (pooled execution keeps at most ~``2 * workers`` undelivered
        results in flight).  Consumers that need live progress (the campaign
        service's shard streaming, progress bars) can therefore react
        per-shard while the campaign is still executing; nothing buffers the
        whole campaign.

        ``on_shard`` is invoked in the caller's process with each shard
        immediately before it is yielded — a convenience for driving
        callbacks from consumers like :meth:`run` / :meth:`run_merged` that
        would otherwise swallow the iterator.

        ``store`` (a :class:`~repro.io.shard_store.ShardStore`) receives
        every shard via ``append`` the moment it arrives — the out-of-core
        spill path: with the campaign tensor backend each ``chunk_shards``
        block lands in the store as the chunk completes, so nothing ever
        accumulates a shard list.  When that backend runs chunk-parallel in
        process mode, its workers spill their chunks *directly* into the
        store's on-disk format and the parent only adopts the finished
        files (the shards yielded here are the store's mmap views).  The
        consumer still sees every shard; :meth:`run_to_store` is the
        variant that swallows the iterator.
        """
        iter_parallel = getattr(backend, "iter_shards_parallel", None)
        if store is not None and iter_parallel is not None:
            workers = self._resolve_workers(config, len(backend.shard_specs(config)))
            if workers > 1:
                # the backend handles the spill itself (direct worker->store
                # in process mode, parent-side extend in thread mode)
                for shard in iter_parallel(
                    config, workers=workers, mode=self.mode, store=store
                ):
                    if on_shard is not None:
                        on_shard(shard)
                    yield shard
                return
        for _, shard in self._iter_mapped(backend, config, None):
            if store is not None:
                store.append(shard)
            if on_shard is not None:
                on_shard(shard)
            yield shard

    def map_blocks(
        self, backend: "CampaignBackend", config: "CampaignConfig", mapper
    ) -> Optional[Iterator[list]]:
        """Apply a columnar block mapper chunk by chunk, if the backend can.

        ``mapper(columns, slices)`` receives whole multi-shard column blocks
        (see :meth:`CampaignTensorBackend.map_chunk_blocks`) and its results
        are yielded per chunk in serial (trial-major) order; with a pool the
        mapper runs inside the workers, so per-shard analysis partials are
        the only thing crossing the process boundary.  Returns ``None`` for
        backends without a chunk-block path — callers fall back to
        :meth:`map_shards`.
        """
        map_chunks = getattr(backend, "map_chunk_blocks", None)
        if map_chunks is None:
            return None
        workers = self._resolve_workers(config, len(backend.shard_specs(config)))
        return map_chunks(config, mapper, workers=workers, mode=self.mode)

    def map_shards(
        self, backend: "CampaignBackend", config: "CampaignConfig", mapper
    ) -> Iterator[tuple]:
        """Apply ``mapper`` to every shard, yielding ``(spec, result)`` pairs
        in serial (trial-major) order.

        With a pool, the mapping runs inside the workers
        (:func:`_map_shard_task`), so a mapper that reduces each shard to a
        small summary — the streaming analysis engine's per-pass partial
        states — keeps the parent's memory bounded: shard sample arrays are
        produced, consumed and dropped worker-side.  ``mapper`` must be
        picklable for the process-pool mode.
        """
        return self._iter_mapped(backend, config, mapper)

    def run(
        self,
        backend: "CampaignBackend",
        config: "CampaignConfig",
        *,
        on_shard: Optional[Callable[[TimingShard], None]] = None,
    ) -> List[TimingShard]:
        """All shards of the campaign, ordered.

        ``on_shard`` (if given) observes each shard incrementally, before
        the campaign finishes — see :meth:`iter_shards`.
        """
        return list(self.iter_shards(backend, config, on_shard=on_shard))

    def run_to_store(
        self,
        backend: "CampaignBackend",
        config: "CampaignConfig",
        store: "ShardStore",
        *,
        on_shard: Optional[Callable[[TimingShard], None]] = None,
    ) -> "ShardStore":
        """Spill the whole campaign into ``store`` with bounded memory.

        Drives :meth:`iter_shards` appending each shard as it arrives and
        drops it immediately — peak memory is the executor's in-flight
        window plus the store's spill buffer, independent of campaign size.
        Returns the (flushed, not yet finalized) store.
        """
        for _ in self.iter_shards(backend, config, on_shard=on_shard, store=store):
            pass
        store.flush()
        return store

    def run_merged(
        self,
        backend: "CampaignBackend",
        config: "CampaignConfig",
        *,
        on_shard: Optional[Callable[[TimingShard], None]] = None,
    ) -> TimingDataset:
        """Run all shards and merge them into one dataset."""
        return TimingDataset.merge(
            self.iter_shards(backend, config, on_shard=on_shard),
            metadata=backend.metadata(config),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardExecutor(max_workers={self.max_workers}, mode={self.mode!r})"
