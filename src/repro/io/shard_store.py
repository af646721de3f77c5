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
        group-00000.bin      # raw little-endian column blobs of group 0
        group-00001.bin      # ...

``append(shard)`` buffers shards in memory until their column bytes exceed
:attr:`~ShardStore.spill_threshold_bytes`, then flushes them as one *group
file*: per column, the group's shard arrays concatenated into a single raw
blob (16-byte magic header, then column blobs back to back).  The manifest
records every group's shard addresses (``trial``/``process``/sample count)
and per-column ``dtype``/``offset``, so reading needs no file parsing at
all — ``iter_shards()`` opens one ``np.memmap`` per column per group and
slices **zero-copy views** out of it, one :class:`~repro.core.timing.TimingShard`
at a time.  Because the views chain back to the group's mappings, advancing
the iterator releases each group's pages as soon as its last shard is
dropped: a full-store scan keeps roughly one group resident, which is what
bounds the peak RSS of an out-of-core campaign.

Durability and sharing:

* group files and the manifest are written to a sibling ``*.tmp-<pid>`` and
  published with :func:`os.replace`, so a crashed writer can never leave a
  half-written group visible — readers only ever see a consistent manifest;
* ``iter_shards()`` on a read-only store re-reads the manifest per call
  (snapshot semantics: iteration sees every group flushed before the call
  and is unaffected by concurrent ``append``/``flush``);
* round-trips are **bit-identical**: columns are stored as raw bytes of the
  arrays that were appended, so a stored-and-reloaded campaign merges into
  the same dataset — and the same digest — as the in-memory run (pinned in
  the test suite);
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
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.timing import TimingDataset, TimingShard
from repro.io.schema import validate_columns

PathLike = Union[str, Path]

#: on-disk format version of the store directory (manifest + group files)
STORE_FORMAT_VERSION = 1

#: group files start with this magic; column offsets account for it
GROUP_MAGIC = b"REPRO-SHARD-GRP1"

#: default in-memory buffer bound before shards spill to a group file (64 MiB)
DEFAULT_SPILL_THRESHOLD_BYTES = 64 * 1024 * 1024

MANIFEST_NAME = "manifest.json"

#: publication attempts before a non-store directory at the target raises
_PUBLISH_ATTEMPTS = 64

_MODES = ("w", "a", "r")


def _shard_nbytes(shard: TimingShard) -> int:
    return int(sum(np.asarray(values).nbytes for values in shard.columns.values()))


def write_group_payload(
    path: PathLike, shards: Sequence[TimingShard]
) -> Dict[str, object]:
    """Write one group file's bytes at ``path``; return its manifest entry.

    Exactly the format :meth:`ShardStore.flush` spills (16-byte magic, then
    per sorted column name the shards' arrays concatenated into one raw
    blob), minus the manifest bookkeeping — so a pool worker can
    serialise its shards straight into the store's on-disk layout and the
    parent merely adopts the finished file
    (:meth:`ShardStore.adopt_group`) instead of round-tripping the arrays.
    The entry's ``"file"`` field is left empty for the adopter to fill.
    """
    shards = list(shards)
    if not shards:
        raise ValueError("cannot write an empty group")
    names = sorted(shards[0].columns)
    for shard in shards[1:]:
        if sorted(shard.columns) != names:
            raise ValueError(
                "all shards in a group must share the same column set; "
                f"expected {names}, got {sorted(shard.columns)}"
            )
    columns_meta: List[Dict[str, object]] = []
    shards_meta = [
        {
            "trial": int(shard.trial),
            "process": None if shard.process is None else int(shard.process),
            "n_samples": int(shard.n_samples),
        }
        for shard in shards
    ]
    with open(path, "wb") as handle:
        handle.write(GROUP_MAGIC)
        offset = len(GROUP_MAGIC)
        for name in names:
            parts = [
                np.ascontiguousarray(np.asarray(shard.columns[name]))
                for shard in shards
            ]
            dtype = parts[0].dtype
            for part in parts[1:]:
                if part.dtype != dtype:
                    raise ValueError(
                        f"column {name!r} mixes dtypes across shards "
                        f"({dtype} vs {part.dtype})"
                    )
            nbytes = 0
            for part in parts:
                part.tofile(handle)
                nbytes += part.nbytes
            columns_meta.append({"name": name, "dtype": dtype.str, "offset": offset})
            offset += nbytes
        handle.flush()
        os.fsync(handle.fileno())
    return {
        "file": "",
        "n_samples": int(sum(s["n_samples"] for s in shards_meta)),
        "shards": shards_meta,
        "columns": columns_meta,
    }


def _check_open_file_limit(path: Path, groups: List[dict]) -> None:
    """Refuse a scan of ``groups`` whose open files would pass the limit.

    A full hold needs one descriptor per group, plus the group being mapped
    and the one before it (the file being opened and one mapping per
    column each).
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
    needed = len(groups) + 2 * (1 + max(len(g["columns"]) for g in groups))
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
    """One stored slice's samples as ``shape`` rows, read from disk on demand.

    Indexing with a row slice (``rows[start:stop]``) reads those rows into a
    fresh float64 array, so a holder treats it like the ``(n_iterations,
    n_threads)`` cube it stands for without keeping any of it in memory.
    Built by :meth:`GroupColumns.stored_rows`.
    """

    __slots__ = ("_file", "_offset", "_dtype", "shape")

    def __init__(
        self, file: _GroupFile, offset: int, dtype: np.dtype, shape: Tuple[int, ...]
    ) -> None:
        self._file = file
        self._offset = int(offset)
        self._dtype = np.dtype(dtype)
        self.shape = tuple(int(n) for n in shape)

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, step = rows.indices(self.shape[0])
        if step != 1:
            raise ValueError("stored rows are read as one contiguous range")
        count = max(stop - start, 0)
        width = int(np.prod(self.shape[1:]))
        out = np.empty(count * width, dtype=self._dtype)
        self._file.read_into(out, self._offset + start * width * self._dtype.itemsize)
        return out.astype(np.float64, copy=False).reshape((count,) + self.shape[1:])


class GroupColumns(dict):
    """One group's columns, name → zero-copy mmap view, with the file kept open.

    A plain mapping for every reader of :meth:`ShardStore.group_columns`;
    :meth:`stored_rows` additionally hands out a slice's samples as a
    :class:`StoredRows` handle, for readers that keep them past the scan.
    """

    def __init__(self, columns: Dict[str, np.ndarray], file: _GroupFile, group: dict):
        super().__init__(columns)
        self._file = file
        (self._samples,) = [
            column for column in group["columns"] if column["name"] == "compute_time_s"
        ]

    def stored_rows(self, sl, shape: Tuple[int, ...]) -> StoredRows:
        """The ``compute_time_s`` samples of slice ``sl`` (rows
        ``sl.start:sl.stop`` of the group) as a ``shape`` handle."""
        dtype = np.dtype(self._samples["dtype"])
        offset = int(self._samples["offset"]) + sl.start * dtype.itemsize
        return StoredRows(self._file, offset, dtype, shape)


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
        In-memory buffer bound: ``append`` flushes the buffered shards into
        a new group file once their column bytes reach this threshold.
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
        self._buffer: List[TimingShard] = []
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

    def append(self, shard: TimingShard) -> None:
        """Buffer one shard, spilling a group once the threshold is hit."""
        self._check_writable()
        validate_columns(dict(shard.columns))
        self._buffer.append(shard)
        self._buffered_bytes += _shard_nbytes(shard)
        if self._buffered_bytes >= self.spill_threshold_bytes:
            self.flush()

    def extend(self, shards: Sequence[TimingShard]) -> None:
        """Append several shards (e.g. one campaign-backend chunk)."""
        for shard in shards:
            self.append(shard)

    def flush(self) -> None:
        """Spill the buffered shards into a new on-disk group (if any)."""
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
        the manifest entry that call returned.  Any buffered shards flush
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
    def group_columns(self, group: dict):
        """One group's full columns as zero-copy mmap views, plus its shard
        addressing.

        Returns ``(columns, slices)``: ``columns`` (a :class:`GroupColumns`)
        maps each column name to
        one :class:`numpy.memmap` view covering the whole group (all shards
        concatenated, exactly the bytes on disk) and ``slices`` is one
        :class:`~repro.core.aggregation.ShardSlice` per stored shard, in
        append order.  A group of campaign shards *is already* a canonical
        column block (:func:`~repro.core.aggregation.canonical_block`), so
        analyses fold it with no copy and without ever assembling per-shard
        objects.  The views are file
        backed (clean pages, evictable), so streaming group blocks keeps the
        same bounded working set as :meth:`iter_shards`.
        """
        from repro.core.aggregation import ShardSlice

        path = self.path / group["file"]
        length = int(group["n_samples"])
        with open(path, "rb") as handle:
            if handle.read(len(GROUP_MAGIC)) != GROUP_MAGIC:
                raise ValueError(f"{path} is not a shard-store group file")
            columns = GroupColumns(
                {
                    column["name"]: np.memmap(
                        handle,
                        dtype=np.dtype(column["dtype"]),
                        mode="r",
                        offset=int(column["offset"]),
                        shape=(length,),
                    )
                    for column in group["columns"]
                },
                _GroupFile(os.dup(handle.fileno())),
                group,
            )
        slices = []
        start = 0
        for entry in group["shards"]:
            stop = start + int(entry["n_samples"])
            slices.append(
                ShardSlice(
                    trial=int(entry["trial"]),
                    process=(
                        None if entry["process"] is None else int(entry["process"])
                    ),
                    start=start,
                    stop=stop,
                )
            )
            start = stop
        return columns, slices

    def iter_column_blocks(self):
        """Stream the store group by group as ``(columns, slices)`` blocks.

        The columnar dual of :meth:`iter_shards`: each stored group is
        yielded once, as the zero-copy mmap column views plus shard slices
        of :meth:`group_columns`, in manifest (serial shard) order.  Feed
        the blocks to
        :func:`~repro.analysis.engine.run_columnar_analyses` to analyse an
        out-of-core campaign without materialising shards; the same
        snapshot/flush semantics as :meth:`iter_shards` apply, and roughly
        one group's pages are hot at a time.

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
            yield self.group_columns(group)

    def iter_shards(self) -> Iterator[TimingShard]:
        """Stream every stored shard as zero-copy memory-mapped views.

        Writable stores flush their buffer first, so the iteration always
        covers everything appended so far and every yielded shard is a mmap
        view.  Read-only stores re-read the manifest, snapshotting whatever
        groups a concurrent writer has published by now; groups appearing
        later are picked up by the next ``iter_shards()`` call.  Each
        group's mappings are released as the consumer advances past it —
        hold on to all yielded shards and the whole store stays mapped;
        stream them and roughly one group is resident at a time.
        """
        if self.mode == "r":
            manifest = self._read_manifest()
            self._manifest = manifest
        else:
            self.flush()
            manifest = self._manifest
        for group in list(manifest["groups"]):  # type: ignore[index]
            columns, slices = self.group_columns(group)
            for sl in slices:
                yield sl.shard(columns)

    def __iter__(self) -> Iterator[TimingShard]:
        return self.iter_shards()

    def dataset(
        self, metadata: Optional[Dict[str, object]] = None
    ) -> TimingDataset:
        """Merge the stored shards into a dense dataset (materialises!)."""
        merged_metadata = dict(self.metadata)
        if metadata is not None:
            merged_metadata.update(metadata)
        return TimingDataset.merge(self.iter_shards(), metadata=merged_metadata)

    def verify(self) -> "ShardStore":
        """Check that the store is complete and every group file intact.

        Each group file must exist and hold exactly the 16-byte magic plus
        its columns' bytes as the manifest records them; a truncated or
        missing group would otherwise only surface as an mmap error on the
        first read.  Raises ``ValueError``; returns ``self``.
        """
        if not self.complete:
            raise ValueError(f"shard store at {self.path} is incomplete")
        for group in self._manifest["groups"]:  # type: ignore[union-attr]
            path = self.path / group["file"]
            expected = len(GROUP_MAGIC) + int(group["n_samples"]) * sum(
                np.dtype(column["dtype"]).itemsize for column in group["columns"]
            )
            try:
                size = path.stat().st_size
            except OSError:
                raise ValueError(f"group file {path} is missing") from None
            if size != expected:
                raise ValueError(
                    f"group file {path} holds {size} bytes, expected {expected}"
                )
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
            len(group["shards"]) for group in self._manifest["groups"]  # type: ignore[index]
        )
        return stored + len(self._buffer)

    @property
    def n_samples(self) -> int:
        return int(self._manifest["total_samples"]) + sum(  # type: ignore[arg-type]
            shard.n_samples for shard in self._buffer
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

    def shard_index(self) -> List[Tuple[int, Optional[int]]]:
        """Stored ``(trial, process)`` addresses in append order."""
        addresses: List[Tuple[int, Optional[int]]] = []
        for group in self._manifest["groups"]:  # type: ignore[index]
            for entry in group["shards"]:
                addresses.append(
                    (
                        int(entry["trial"]),
                        None if entry["process"] is None else int(entry["process"]),
                    )
                )
        addresses.extend((shard.trial, shard.process) for shard in self._buffer)
        return addresses

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
    "GroupColumns",
    "ShardStore",
    "StoredRows",
    "publish_store",
    "write_group_payload",
    "STORE_FORMAT_VERSION",
    "DEFAULT_SPILL_THRESHOLD_BYTES",
]
