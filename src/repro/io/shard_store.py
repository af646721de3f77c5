"""The spillable, memory-mapped campaign shard store.

:class:`ShardStore` is the out-of-core backbone of the campaign layer: a
columnar on-disk format that lets a campaign far larger than RAM stream
through execution and the figure generators with only a bounded working
set resident.  The analysis passes read it group by group as well, but
what they keep until they finalize grows with the campaign (see the last
point below and :mod:`repro.analysis.passes`).

Layout — one *directory* per store::

    campaign.store/
        manifest.json        # format version, metadata, group index
        group-00000.bin      # group 0: magic, float64 cube
        group-00001.bin      # ...

A group file is one :class:`~repro.core.aggregation.ColumnBlock`: the
16-byte magic, then one ``(n_slices, n_iterations, n_threads)`` float64
cube of compute times — 8 B per sample.  The manifest holds the ids: per
group its (trial, process) slice keys, iterations, threads and a
``zlib.crc32`` of the file.  ``append_block`` buffers blocks until their
bytes exceed :attr:`~ShardStore.spill_threshold_bytes`, then flushes them
as one group.  ``iter_column_blocks()`` memory-maps one group at a time as
a block, **zero-copy** (ids derived on access); advancing releases each
group's pages once its last view is dropped, so a full-store scan keeps
roughly one group resident, which is what bounds the peak RSS of an
out-of-core campaign.

Durability and sharing:

* group files and the manifest are written to a sibling ``*.tmp-<pid>`` and
  published with :func:`os.replace`, so a crashed writer can never leave a
  half-written group visible — readers only ever see a consistent manifest;
* ``iter_column_blocks()`` on a read-only store re-reads the manifest per
  call (snapshot semantics: iteration sees every group flushed before the
  call and is unaffected by concurrent ``append_block``/``flush``);
* round-trips are **bit-identical**: the cube is stored as the raw bytes
  of the arrays that were appended, so a stored-and-reloaded campaign
  merges into the same dataset — and the same digest — as the in-memory
  run (pinned in the test suite);
* :meth:`~ShardStore.verify` checks every group's size and crc32, so a
  torn or bit-flipped entry is caught before it is served; a store of
  another format version fails to open, and the campaign cache treats both
  as misses that it removes and recomputes;
* a reader that must keep a shard's samples past the scan (the analyses
  hold every slice until they finalize) keeps a :class:`StoredRows` handle
  instead of the mapped view: the group's open file, an offset and a shape.
  The pages are then free to leave memory, and because the file is held
  open, not its path, an eviction that unlinks the group cannot break the
  later re-read.  The price: such a reader holds one open file per group
  (:meth:`~ShardStore.iter_column_blocks` checks the open-file limit before
  it starts), and an unlinked group's disk space is only freed when its
  last handle is dropped.
"""

from __future__ import annotations

import errno
import json
import math
import os
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.aggregation import ColumnBlock, ShardSlice
from repro.core.timing import TimingDataset

PathLike = Union[str, Path]

#: on-disk format version of the store directory (manifest + group files)
STORE_FORMAT_VERSION = 3

#: group files start with this magic; the cube follows it
GROUP_MAGIC = b"REPRO-SHARD-GRP2"

#: default in-memory buffer bound before shards spill to a group file (64 MiB)
DEFAULT_SPILL_THRESHOLD_BYTES = 64 * 1024 * 1024

MANIFEST_NAME = "manifest.json"

#: publication attempts before a non-store directory at the target raises
_PUBLISH_ATTEMPTS = 64

_MODES = ("w", "a", "r")


def write_group_payload(
    path: PathLike, blocks: Sequence[ColumnBlock]
) -> Dict[str, object]:
    """Write one group file's bytes at ``path``; return its manifest entry.

    Exactly the format :meth:`ShardStore.flush` spills (16-byte magic, then
    the blocks' cubes back to back), minus the manifest bookkeeping — so a pool worker can serialise its
    block straight into the store's on-disk layout and the parent merely
    adopts the finished file (:meth:`ShardStore.adopt_group`) instead of
    round-tripping the arrays.  The blocks must share their iteration and
    thread ids.  The entry carries the file's crc32; its
    ``"file"`` field is left empty for the adopter to fill.
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("cannot write an empty group")
    first = blocks[0]
    for block in blocks[1:]:
        if (
            block.cube.shape[1:] != first.cube.shape[1:]
            or np.any(block.iterations != first.iterations)
            or np.any(block.threads != first.threads)
        ):
            raise ValueError("the blocks of a group need the same ids")
    size = first.cube.shape[1] * first.cube.shape[2]
    slices = [sl for block in blocks for sl in block.slices]
    crc = zlib.crc32(GROUP_MAGIC)
    with open(path, "wb") as handle:
        handle.write(GROUP_MAGIC)
        for block in blocks:
            data = np.ascontiguousarray(block.cube, dtype=np.float64).data.cast("B")
            handle.write(data)
            crc = zlib.crc32(data, crc)
        handle.flush()
        os.fsync(handle.fileno())
    return {
        "file": "",
        "n_samples": len(slices) * size,
        "crc32": crc,
        "slices": [[int(sl.trial), int(sl.process)] for sl in slices],
        "iterations": first.iterations.tolist(),
        "threads": first.threads.tolist(),
    }


def _check_open_file_limit(path: Path, groups: List[dict]) -> None:
    """Refuse a scan of ``groups`` whose open files would pass the limit.

    A full hold needs one descriptor per group, plus the group being mapped
    and the one before it (the file being opened and the cube's mapping
    each).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - platforms without rlimits
        return
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft == resource.RLIM_INFINITY or not groups:
        return
    try:
        in_use = len(os.listdir("/dev/fd"))
    except OSError:  # pragma: no cover - no descriptor listing
        in_use = 0
    needed = len(groups) + 2 * 2
    if in_use + needed > soft:
        raise OSError(
            errno.EMFILE,
            f"analysing the shard store {path} keeps each of its "
            f"{len(groups)} group files open until the analyses finalize: "
            f"{needed} open files beyond the {in_use} in use, more than the "
            f"open-file limit (RLIMIT_NOFILE) of {soft} allows; raise the "
            "limit (ulimit -n) or store fewer, larger groups (a larger spill "
            "threshold, --spill-mb)",
        )


class _GroupFile:
    """A group file held open for re-reads; closed with its last holder."""

    __slots__ = ("fd",)

    def __init__(self, fd: int) -> None:
        self.fd = fd

    def __del__(self) -> None:
        os.close(self.fd)

    def __reduce__(self):
        # the descriptor means nothing in another process
        raise TypeError("an open shard-store group file cannot be pickled")

    def read_into(self, out: np.ndarray, offset: int) -> None:
        """Fill the contiguous array ``out`` from byte ``offset`` on."""
        view = memoryview(out).cast("B")
        while view:
            count = os.preadv(self.fd, [view], offset)
            if count == 0:
                raise ValueError("shard-store group file ended early")
            view = view[count:]
            offset += count


class StoredRows:
    """Stored samples as ``shape`` rows, read from disk on demand.

    Indexing with a row slice (``rows[start:stop]``) reads those rows into a
    fresh float64 array, so a holder treats it like the array it stands for
    (a slice's ``(n_iterations, n_threads)`` matrix, or a group's whole
    cube) without keeping any of it in memory.  A block read from a store
    carries one on its cube as
    :attr:`~repro.core.aggregation.ColumnBlock.stored`; :meth:`row` hands
    out a slice's own handle.
    """

    __slots__ = ("_file", "_offset", "shape", "_row_bytes")

    def __init__(self, file: _GroupFile, offset: int, shape: Tuple[int, ...]) -> None:
        self._file = file
        self._offset = int(offset)
        self.shape = tuple(int(n) for n in shape)
        self._row_bytes = math.prod(self.shape[1:]) * 8

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, step = rows.indices(self.shape[0])
        if step != 1:
            raise ValueError("stored rows are read as one contiguous range")
        count = max(stop - start, 0)
        out = np.empty(count * self._row_bytes // 8)
        self._file.read_into(out, self._offset + start * self._row_bytes)
        return out.reshape((count,) + self.shape[1:])

    def row(self, index: int) -> "StoredRows":
        """Row ``index`` as a handle of its own (nothing is read)."""
        offset = self._offset + index * self._row_bytes
        return StoredRows(self._file, offset, self.shape[1:])

    def rows_from(self, index: int) -> "StoredRows":
        """Rows ``index:`` as a handle of their own (nothing is read)."""
        shape = (self.shape[0] - index,) + self.shape[1:]
        return StoredRows(self._file, self._offset + index * self._row_bytes, shape)


class ShardStore:
    """Columnar spill-to-disk store of campaign shards.

    Parameters
    ----------
    path:
        Store directory (created for writable modes).
    mode:
        ``"w"`` starts a fresh store (fails if one already exists at
        ``path``), ``"a"`` opens-or-creates for appending, ``"r"`` opens an
        existing store read-only.
    spill_threshold_bytes:
        In-memory buffer bound: ``append_block`` flushes the buffered
        blocks into a new group file once their bytes reach this threshold.
        This is the RAM-budget knob of an out-of-core campaign — together
        with group-at-a-time reads it caps the store's working set at
        roughly one group on each side.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        mode: str = "a",
        spill_threshold_bytes: int = DEFAULT_SPILL_THRESHOLD_BYTES,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if spill_threshold_bytes < 1:
            raise ValueError("spill_threshold_bytes must be >= 1")
        self.path = Path(path)
        self.mode = mode
        self.spill_threshold_bytes = int(spill_threshold_bytes)
        self._buffer: List[ColumnBlock] = []
        self._buffered_bytes = 0
        manifest_path = self.path / MANIFEST_NAME
        if mode == "r":
            if not manifest_path.exists():
                raise FileNotFoundError(f"no shard store at {self.path}")
            self._manifest = self._read_manifest()
        elif mode == "w":
            if manifest_path.exists():
                raise FileExistsError(f"shard store already exists at {self.path}")
            self.path.mkdir(parents=True, exist_ok=True)
            self._manifest = self._empty_manifest()
            self._write_manifest()
        else:  # append
            self.path.mkdir(parents=True, exist_ok=True)
            self._manifest = (
                self._read_manifest()
                if manifest_path.exists()
                else self._empty_manifest()
            )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: PathLike,
        *,
        spill_threshold_bytes: int = DEFAULT_SPILL_THRESHOLD_BYTES,
    ) -> "ShardStore":
        """Start a fresh store at ``path`` (must not already exist)."""
        return cls(path, mode="w", spill_threshold_bytes=spill_threshold_bytes)

    @classmethod
    def open(cls, path: PathLike) -> "ShardStore":
        """Open an existing store read-only."""
        return cls(path, mode="r")

    # ------------------------------------------------------------------
    # manifest plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _empty_manifest() -> Dict[str, object]:
        return {
            "format_version": STORE_FORMAT_VERSION,
            "complete": False,
            "metadata": {},
            "total_samples": 0,
            "groups": [],
        }

    def _read_manifest(self) -> Dict[str, object]:
        manifest = json.loads((self.path / MANIFEST_NAME).read_text())
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported shard-store format version {version!r} "
                f"(expected {STORE_FORMAT_VERSION})"
            )
        return manifest

    def _write_manifest(self) -> None:
        # tmp + replace: readers never observe a torn manifest
        tmp = self.path / f"{MANIFEST_NAME}.tmp-{os.getpid()}"
        try:
            tmp.write_text(json.dumps(self._manifest, sort_keys=True))
            os.replace(tmp, self.path / MANIFEST_NAME)
        finally:
            tmp.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _check_writable(self) -> None:
        if self.mode == "r":
            raise ValueError("store is read-only")
        if self._manifest["complete"]:
            raise ValueError("store is finalized; no further appends allowed")

    def append_block(self, block: ColumnBlock) -> None:
        """Buffer one block, spilling a group once the threshold is hit."""
        self._check_writable()
        self._buffer.append(block)
        self._buffered_bytes += block.cube.nbytes
        if self._buffered_bytes >= self.spill_threshold_bytes:
            self.flush()

    def flush(self) -> None:
        """Spill the buffered blocks into a new on-disk group (if any)."""
        if self.mode == "r":
            raise ValueError("store is read-only")
        if not self._buffer:
            return
        groups: List[dict] = self._manifest["groups"]  # type: ignore[assignment]
        file_name = f"group-{len(groups):05d}.bin"
        tmp = self.path / f"{file_name}.tmp-{os.getpid()}"
        try:
            entry = write_group_payload(tmp, self._buffer)
            os.replace(tmp, self.path / file_name)
        finally:
            tmp.unlink(missing_ok=True)
        entry["file"] = file_name
        groups.append(entry)
        self._manifest["total_samples"] = int(
            self._manifest["total_samples"]  # type: ignore[operator]
        ) + int(entry["n_samples"])  # type: ignore[arg-type]
        self._buffer = []
        self._buffered_bytes = 0
        self._write_manifest()

    def adopt_group(
        self, payload: PathLike, entry: Dict[str, object]
    ) -> Dict[str, object]:
        """Adopt a finished group payload file without copying its bytes.

        ``payload`` must have been written with :func:`write_group_payload`
        (a pool worker spills its unit of work this way, into the store
        directory so the rename stays on one filesystem) and ``entry`` is
        the manifest entry that call returned.  Any buffered blocks flush
        first so append order is preserved, then the payload is renamed
        into place as the next group file and its entry joins the manifest
        — the same tmp-then-publish protocol :meth:`flush` uses, so readers
        never observe a half-adopted group.  Returns the adopted entry.
        """
        self._check_writable()
        self.flush()
        groups: List[dict] = self._manifest["groups"]  # type: ignore[assignment]
        file_name = f"group-{len(groups):05d}.bin"
        os.replace(Path(payload), self.path / file_name)
        adopted = dict(entry)
        adopted["file"] = file_name
        groups.append(adopted)
        self._manifest["total_samples"] = int(
            self._manifest["total_samples"]  # type: ignore[operator]
        ) + int(adopted["n_samples"])  # type: ignore[arg-type]
        self._write_manifest()
        return adopted

    def finalize(self, metadata: Optional[Dict[str, object]] = None) -> "ShardStore":
        """Flush, stamp ``metadata`` and mark the store complete."""
        self._check_writable()
        self.flush()
        if metadata is not None:
            merged = dict(self._manifest.get("metadata") or {})
            merged.update(metadata)
            self._manifest["metadata"] = merged
        self._manifest["complete"] = True
        self._write_manifest()
        return self

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def group_block(self, group: dict) -> ColumnBlock:
        """One group as a block: its cube is a zero-copy
        :class:`numpy.memmap` view (clean, evictable pages), its ids come
        from the manifest, and its ``stored`` :class:`StoredRows` holds the
        group file open for readers that keep slices past the scan."""
        path = self.path / group["file"]
        iterations = np.asarray(group["iterations"], dtype=np.int32)
        threads = np.asarray(group["threads"], dtype=np.int32)
        shape = (len(group["slices"]), len(iterations), len(threads))
        size = shape[1] * shape[2]
        with open(path, "rb") as handle:
            if handle.read(len(GROUP_MAGIC)) != GROUP_MAGIC:
                raise ValueError(f"{path} is not a shard-store group file")
            cube = np.memmap(
                handle, dtype="<f8", mode="r", offset=len(GROUP_MAGIC), shape=shape
            )
            stored = StoredRows(
                _GroupFile(os.dup(handle.fileno())), len(GROUP_MAGIC), shape
            )
        slices = tuple(
            ShardSlice(int(trial), int(process), k * size, (k + 1) * size)
            for k, (trial, process) in enumerate(group["slices"])
        )
        return ColumnBlock(cube, slices, iterations, threads, stored)

    def iter_column_blocks(self) -> Iterator[ColumnBlock]:
        """Stream the store group by group as column blocks.

        Each stored group is yielded once, as the zero-copy mmap block of
        :meth:`group_block`, in manifest (serial shard) order.  Writable
        stores flush their buffer first, so the scan covers everything
        appended so far.  Read-only stores re-read the manifest, snapshotting
        whatever groups a concurrent writer has published by now; groups
        appearing later are picked up by the next call.  Each group's
        mappings are released as the consumer advances past it — hold on to
        every yielded block (or a one-slice view of one) and the whole store
        stays mapped; stream them and roughly one group's pages are hot at a
        time.  Feed the blocks to
        :func:`~repro.analysis.engine.run_columnar_analyses` to analyse an
        out-of-core campaign.

        Each block keeps its group file open while it, or a
        :class:`StoredRows` handle on it, is held — and the analyses hold
        them all until they finalize.  So the scan first checks that one
        descriptor per group fits the process's open-file limit and raises
        ``OSError(EMFILE)`` naming the remedies if it does not, rather than
        failing partway through the fold.
        """
        if self.mode == "r":
            manifest = self._read_manifest()
            self._manifest = manifest
        else:
            self.flush()
            manifest = self._manifest
        groups = list(manifest["groups"])  # type: ignore[index]
        _check_open_file_limit(self.path, groups)
        for group in groups:
            yield self.group_block(group)

    def dataset(
        self, metadata: Optional[Dict[str, object]] = None
    ) -> TimingDataset:
        """Merge the stored groups into a dense dataset (materialises!)."""
        merged_metadata = dict(self.metadata)
        if metadata is not None:
            merged_metadata.update(metadata)
        return TimingDataset.merge(self.iter_column_blocks(), metadata=merged_metadata)

    def verify(self) -> "ShardStore":
        """Check that the store is complete and every group file intact.

        Each group file must exist, hold exactly the 16-byte magic plus its
        cube's bytes as the manifest records them, and match
        the manifest's crc32 — so a truncated, missing or bit-flipped group
        fails here instead of surfacing as an mmap error or wrong samples
        later.  Reads every group once.  Raises ``ValueError``; returns
        ``self``.
        """
        if not self.complete:
            raise ValueError(f"shard store at {self.path} is incomplete")
        for group in self._manifest["groups"]:  # type: ignore[union-attr]
            path = self.path / group["file"]
            expected = len(GROUP_MAGIC) + 8 * int(group["n_samples"])
            try:
                size = path.stat().st_size
            except OSError:
                raise ValueError(f"group file {path} is missing") from None
            if size != expected:
                raise ValueError(
                    f"group file {path} holds {size} bytes, expected {expected}"
                )
            crc = 0
            with open(path, "rb") as handle:
                while chunk := handle.read(1 << 20):
                    crc = zlib.crc32(chunk, crc)
            if crc != group["crc32"]:
                raise ValueError(f"group file {path} fails its crc32 check")
        return self

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """Whether :meth:`finalize` ran (the campaign fully landed)."""
        if self.mode == "r":
            self._manifest = self._read_manifest()
        return bool(self._manifest["complete"])

    @property
    def metadata(self) -> Dict[str, object]:
        return dict(self._manifest.get("metadata") or {})

    @property
    def n_groups(self) -> int:
        return len(self._manifest["groups"])  # type: ignore[arg-type]

    @property
    def n_shards(self) -> int:
        stored = sum(
            len(group["slices"]) for group in self._manifest["groups"]  # type: ignore[index]
        )
        return stored + sum(len(block.slices) for block in self._buffer)

    @property
    def n_samples(self) -> int:
        return int(self._manifest["total_samples"]) + sum(  # type: ignore[arg-type]
            block.n_samples for block in self._buffer
        )

    @property
    def nbytes(self) -> int:
        """On-disk bytes of the store's group files."""
        total = 0
        for group in self._manifest["groups"]:  # type: ignore[index]
            try:
                total += (self.path / group["file"]).stat().st_size
            except OSError:
                pass
        return total

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardStore":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.mode != "r" and not self._manifest["complete"]:
            self.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardStore({str(self.path)!r}, mode={self.mode!r}, "
            f"groups={self.n_groups}, shards={self.n_shards}, "
            f"samples={self.n_samples})"
        )


def publish_store(staged: PathLike, final: PathLike) -> Path:
    """Atomically move a fully-built store directory into its shared place.

    The shared-cache write protocol: build the store in a sibling temp
    directory, :meth:`~ShardStore.finalize` it, then ``publish_store``.
    ``os.rename`` makes the publication atomic; if another tenant won the
    race (``final`` already exists), the staged copy is discarded and the
    winner's store is used — both are bit-identical by construction, so
    dropping the loser is safe.  Concurrent writers may move the winner's
    store aside between this writer's rename and its check, so a failed
    publication is retried a bounded number of times before it raises.
    """
    import shutil

    staged_path, final_path = Path(staged), Path(final)
    final_path.parent.mkdir(parents=True, exist_ok=True)
    attempts = _PUBLISH_ATTEMPTS
    while True:
        try:
            os.rename(staged_path, final_path)
            return final_path
        except OSError:
            if (final_path / MANIFEST_NAME).exists():
                shutil.rmtree(staged_path, ignore_errors=True)
                return final_path
            attempts -= 1
            if attempts == 0:
                raise


__all__ = [
    "ShardStore",
    "StoredRows",
    "publish_store",
    "write_group_payload",
    "STORE_FORMAT_VERSION",
    "DEFAULT_SPILL_THRESHOLD_BYTES",
]
