"""The one worker pool of campaign execution.

:class:`ShardExecutor` runs a backend's campaign, serially or on a
:mod:`concurrent.futures` worker pool of ``config.max_workers`` workers.  A
backend says only how to cut its campaign into units of work
(:meth:`~repro.experiments.backends.CampaignBackend.work_units`) and how to
produce one unit's :class:`~repro.core.aggregation.ColumnBlock`
(:meth:`~repro.experiments.backends.CampaignBackend.unit_block`): one
shard for the per-shard backends, one shard chunk for the campaign tensor
backend.  A unit re-derives its draws from the campaign's root seed by
name, so a block does not depend on which worker produced it or when — a
pooled campaign is bit-identical to a serial one.

The executor's whole surface is one method per thing a caller does with the
blocks, and all three feed the units through :func:`map_pooled`, the one
bounded-window pool driver, with :func:`_run_unit` as the one worker body:

* :meth:`ShardExecutor.iter_blocks` yields the blocks; in process mode their
  cubes come back through one shared-memory segment per unit;
* :meth:`ShardExecutor.map_blocks` applies a picklable ``mapper(block)``
  where each block lands (the analysis engine's
  ``ColumnarAnalyzer``: only per-pass partials come back);
* :meth:`ShardExecutor.run_to_store` spills them into a
  :class:`~repro.io.shard_store.ShardStore`: each worker writes its block as
  a finished group payload and the parent adopts the file.

``config.max_workers <= 1`` (or a single unit) runs the same unit bodies
in-process, one unit at a time, with no pool.  An executor built with a
``pool`` (:func:`make_pool`; the CLI opens one per run) submits every
unit to that pool and leaves it open; without one, each call builds its
own pool and shuts it down when its blocks are consumed.  Two pool modes
are supported:

* ``"process"`` (default) — a :class:`~concurrent.futures.ProcessPoolExecutor`
  using the cheap ``fork`` start method where available.  This is the mode
  that actually scales the NumPy-light per-iteration Python work across
  cores.
* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; useful
  where processes are unavailable (restricted sandboxes) or for backends
  whose units release the GIL.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from collections import deque
from contextlib import closing
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

import numpy as np

from repro.core.aggregation import ColumnBlock

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.experiments.backends import CampaignBackend
    from repro.experiments.config import CampaignConfig
    from repro.io.shard_store import ShardStore

_MODES = ("process", "thread")


def make_pool(mode: str, workers: int):
    """The worker pool of ``mode`` (``fork``-started processes where the
    platform has them)."""
    # the pool's standard library loads on the pooled path only (here and
    # in the shared-memory transport): a serial run never imports it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    if mode == "thread":
        return ThreadPoolExecutor(max_workers=workers)
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = None
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def map_pooled(
    tasks, workers: int, mode: str, *, discard=None, pool=None
) -> Iterator:
    """Run ``(fn, args)`` tasks on a pool; yield results in submission
    order through a bounded in-flight window (~2 x workers).

    ``pool`` is a caller-owned pool to submit to (it stays open); without
    one, a pool of ``mode`` is built here and shut down at the end.  A
    worker process that dies mid-task surfaces as a clear ``RuntimeError``
    (never a hang).  Closing the consumer cancels this call's queued tasks
    (and only those: a shared pool's other work runs on), waits for its
    running ones, and ``discard`` releases any undelivered completed
    results (shared-memory segments, spilled payload files) so nothing
    leaks.
    """
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    owned = pool is None
    if owned:
        pool = make_pool(mode, workers)
    task_iter = iter(tasks)
    pending: deque = deque()

    def submit_next() -> None:
        for fn, args in itertools.islice(task_iter, 1):
            pending.append(pool.submit(fn, *args))

    try:
        for _ in range(2 * workers):
            submit_next()
        while pending:
            result = pending.popleft().result()
            submit_next()
            yield result
    except BrokenProcessPool as exc:
        # raised by a result, or by a submit to a shared pool that an
        # earlier task broke
        raise RuntimeError(
            "a campaign pool worker died mid-unit (the pool is "
            "broken); re-run serially (max_workers=1) to isolate "
            "the failing unit"
        ) from exc
    finally:
        for future in pending:
            future.cancel()
        wait(pending)
        if owned:
            pool.shutdown(wait=True)
        for future in pending:
            if future.cancelled():
                continue
            try:
                result = future.result()
            except Exception:
                continue
            if discard is not None:
                discard(result)


# ----------------------------------------------------------------------
# shared-memory transport: process workers ship a block's cube back
# through one multiprocessing.shared_memory segment per unit, created only
# *after* the block is built (so a crashed worker leaves nothing in
# /dev/shm), instead of pickling it; the parent attaches, copies the cube
# once and unlinks.  The ids travel as the block's slices, so 8 B per
# sample cross the process boundary
# ----------------------------------------------------------------------
def pack_block(block: ColumnBlock) -> Tuple[str, ColumnBlock]:
    """Pack one block's cube into a shared-memory segment (worker side).

    Returns the segment name and the block's cube-free skeleton for
    :func:`unpack_block`.
    """
    from multiprocessing import resource_tracker, shared_memory

    cube = np.ascontiguousarray(block.cube, dtype=np.float64)
    segment = shared_memory.SharedMemory(create=True, size=max(1, cube.nbytes))
    # The parent's attach re-registers the segment with the (fork-shared)
    # resource tracker and its unlink unregisters it, so drop the creation
    # registration here — otherwise the tracker double-counts and warns
    # about a "leaked" segment at shutdown.
    resource_tracker.unregister(segment._name, "shared_memory")
    try:
        np.ndarray(cube.shape, dtype=np.float64, buffer=segment.buf)[...] = cube
        return segment.name, dataclasses.replace(block, cube=np.empty(0))
    finally:
        segment.close()


def unpack_block(segment_name: str, skeleton: ColumnBlock) -> ColumnBlock:
    """Copy a packed block's cube out of shared memory and unlink it
    (parent side).  One copy — the fork-shared resource tracker then
    forgets the segment cleanly."""
    from multiprocessing import shared_memory

    shape = (len(skeleton.slices), len(skeleton.iterations), len(skeleton.threads))
    segment = shared_memory.SharedMemory(name=segment_name)
    try:
        cube = np.ndarray(shape, dtype=np.float64, buffer=segment.buf).copy()
    finally:
        segment.close()
        segment.unlink()
    return dataclasses.replace(skeleton, cube=cube)


def discard_shm(segment_name: str) -> None:
    """Unlink an undelivered worker segment (cancelled consumer)."""
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=segment_name)
    except FileNotFoundError:
        return
    segment.close()
    segment.unlink()


# ----------------------------------------------------------------------
# the one worker body and what it applies where a block lands
# ----------------------------------------------------------------------
def _run_unit(backend: "CampaignBackend", config: "CampaignConfig", unit, apply):
    """Worker entry point (module-level so process pools can pickle it):
    produce one unit's block and apply ``apply(block)`` to it right there
    (``None``: the block itself is the result).

    ``backend`` travels pickled: unpickling it in a spawn-started worker
    imports its defining module, so user-registered backends work in
    process pools on platforms without ``fork``.
    """
    block = backend.unit_block(config, unit)
    return block if apply is None else apply(block)


def _serial_blocks(
    backend: "CampaignBackend", config: "CampaignConfig"
) -> Iterator[ColumnBlock]:
    """The campaign's blocks produced in-process, one unit at a time: the
    pool's unit body, run serially."""
    return (backend.unit_block(config, unit) for unit in backend.work_units(config, 1))


class _SpillPayload:
    """Worker-side spill: write a block as a finished shard-store group
    payload inside the store's directory (so the parent's adopting rename
    stays on one filesystem)."""

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def __call__(self, block):
        from repro.io.shard_store import write_group_payload

        name = f"unit-{os.getpid()}-{os.urandom(8).hex()}.payload"
        path = os.path.join(self.directory, name)
        try:
            entry = write_group_payload(path, [block])
        except BaseException:
            Path(path).unlink(missing_ok=True)
            raise
        return path, entry


def _discard_shared(result) -> None:
    discard_shm(result[0])


def _discard_payload(result) -> None:
    Path(result[0]).unlink(missing_ok=True)


class ShardExecutor:
    """Runs a backend's campaign, serially or on a worker pool.

    The pool size is ``config.max_workers``, capped by the campaign's unit
    count; ``mode`` is ``"process"`` or ``"thread"`` (see module docstring).
    ``pool`` is a caller-owned pool of that mode (:func:`make_pool`) that
    every pooled call submits to instead of building its own; the caller
    shuts it down.
    """

    def __init__(self, *, mode: str = "process", pool=None) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        self.pool = pool

    # ------------------------------------------------------------------
    def _pooled(
        self, backend: "CampaignBackend", config: "CampaignConfig", apply, discard=None
    ) -> Optional[Iterator]:
        """``apply``'s result for every unit, produced on the pool and
        yielded in serial order — or ``None`` when the run is serial (one
        worker, or one unit)."""
        workers = config.max_workers
        units = backend.work_units(config, workers) if workers > 1 else []
        workers = min(workers, len(units))
        if workers <= 1:
            return None
        tasks = ((_run_unit, (backend, config, unit, apply)) for unit in units)
        return map_pooled(tasks, workers, self.mode, discard=discard, pool=self.pool)

    def iter_blocks(
        self, backend: "CampaignBackend", config: "CampaignConfig"
    ) -> Iterator[tuple]:
        """Yield the campaign's column blocks in serial (trial-major)
        order, one per unit.

        **Incremental contract**: each block is yielded as soon as it is
        available — after its own unit ran, *before* later units have (a
        pool keeps at most ~``2 * workers`` undelivered results in flight).
        Consumers that need live progress (the campaign service's shard
        streaming) can react per block while the campaign still runs;
        closing the iterator cancels the queued units.
        """
        shared = self.mode == "process"
        results = self._pooled(
            backend,
            config,
            pack_block if shared else None,
            _discard_shared if shared else None,
        )
        if results is None:
            yield from _serial_blocks(backend, config)
            return
        with closing(results):
            for result in results:
                yield unpack_block(*result) if shared else result

    def map_blocks(
        self, backend: "CampaignBackend", config: "CampaignConfig", mapper
    ) -> Iterator[object]:
        """Apply ``mapper(block)`` to every block where it lands,
        yielding the results in serial (trial-major) order.

        With a pool the mapper runs inside the workers, so a mapper that
        reduces each block to a small summary — the streaming analysis
        engine's per-pass partial states — is the only thing crossing the
        process boundary.  ``mapper`` must be picklable for process mode.
        """
        results = self._pooled(backend, config, mapper)
        if results is None:
            return (mapper(block) for block in _serial_blocks(backend, config))
        return results

    def run_to_store(
        self, backend: "CampaignBackend", config: "CampaignConfig", store: "ShardStore"
    ) -> "ShardStore":
        """Spill the whole campaign into ``store`` with bounded memory.

        Pool workers write each unit's block straight into the store's
        on-disk group format and the parent adopts the finished files — the
        sample arrays never travel to the parent.  A serial run appends
        each block as it is produced, through the store's spill buffer.
        Returns the (flushed, not yet finalized) store.
        """
        payloads = self._pooled(
            backend, config, _SpillPayload(str(store.path)), _discard_payload
        )
        if payloads is None:
            for block in _serial_blocks(backend, config):
                store.append_block(block)
        else:
            with closing(payloads):
                for payload in payloads:
                    try:
                        store.adopt_group(*payload)
                    except BaseException:
                        _discard_payload(payload)
                        raise
        store.flush()
        return store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardExecutor(mode={self.mode!r})"
