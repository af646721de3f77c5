"""Size-bounded, LRU-evicted management of the shared campaign cache.

The ``cache_dir`` the session and the service share holds two artifact
kinds — campaigns, one shard store per configuration (``*.store``
directories), and pickled analysis-pass products (``analysis_*`` files in
the ``products/`` subdirectory).  :class:`CacheTier` promotes that
directory into a real storage tier for the campaigns:

* **recency tracking** — every cache hit bumps the entry's mtime
  (:meth:`touch`), so the modification time *is* the LRU clock;
* **size-bounded eviction** — :meth:`prune` removes least-recently-used
  entries until the tier fits ``max_bytes`` (a ``.store`` directory is one
  evictable unit); :meth:`admit` runs it after every write;
* **crash tolerance** — in-flight ``*.tmp-*`` entries are never counted or
  evicted while fresh, but stale ones (an interrupted writer's leftovers)
  are swept once older than ``stale_after_s``; the same staleness rule
  breaks an abandoned tier lock, so one crashed pruner cannot wedge every
  tenant (the writes themselves are atomic renames, so eviction racing a
  writer or reader is safe — open mmaps keep evicted data alive until
  released).

The products are not tier entries: they are neither counted against the
budget nor evicted.  A configuration's products are a few tens of KB
whatever its sample count, while its store grows with the campaign, and
an analysed service job is answered from its products alone once its
store is gone — so a store is evicted before its own products, which a
byte budget shared with them could not guarantee (at smoke scale the six
products outweigh the store).  :meth:`CacheTier.stats` reports them apart.

``python -m repro cache --stats`` / ``--prune`` expose the tier on the
command line; the ``REPRO_CACHE_MAX_BYTES`` environment variable supplies a
default budget where no explicit knob is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

PathLike = Union[str, Path]

#: environment variable supplying a default tier budget (bytes)
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: lock file guarding prune against concurrent pruners
LOCK_NAME = ".tier.lock"

#: subdirectory of the analysis-pass products, kept outside the budget
PRODUCTS_DIR = "products"

#: age after which tmp leftovers and locks count as crashed-writer debris
DEFAULT_STALE_AFTER_S = 3600.0


@dataclasses.dataclass
class CacheEntry:
    """One evictable unit of the tier (a file, or a store directory)."""

    path: Path
    kind: str
    nbytes: int
    mtime: float


def _tree_bytes(path: Path) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += (Path(root) / name).stat().st_size
            except OSError:
                pass
    return total


class CacheTier:
    """LRU manager of one shared cache directory.

    Parameters
    ----------
    root:
        The cache directory (created if missing).
    max_bytes:
        Tier budget; ``None`` falls back to ``REPRO_CACHE_MAX_BYTES`` and,
        failing that, disables automatic eviction (``prune`` then needs an
        explicit budget).
    stale_after_s:
        Age beyond which ``*.tmp-*`` leftovers and the tier lock are treated
        as debris of a crashed writer and swept/stolen.
    """

    def __init__(
        self,
        root: PathLike,
        *,
        max_bytes: Optional[int] = None,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_bytes is None:
            env = os.environ.get(CACHE_MAX_BYTES_ENV)
            if env:
                max_bytes = int(env)
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = max_bytes
        self.stale_after_s = float(stale_after_s)

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    @staticmethod
    def _kind(path: Path) -> str:
        name = path.name
        if name.endswith(".store") and path.is_dir():
            return "store"
        if name.startswith("analysis_"):
            return "analysis"
        return "other"

    def entries(self) -> List[CacheEntry]:
        """Evictable entries, least recently used first."""
        found: List[CacheEntry] = []
        try:
            children = sorted(self.root.iterdir())
        except FileNotFoundError:
            return []
        for child in children:
            if child.name in (LOCK_NAME, PRODUCTS_DIR) or ".tmp-" in child.name:
                continue  # the lock, products and in-flight writes are not entries
            try:
                stat = child.stat()
                nbytes = _tree_bytes(child) if child.is_dir() else stat.st_size
            except OSError:
                continue  # raced a concurrent eviction
            found.append(
                CacheEntry(
                    path=child,
                    kind=self._kind(child),
                    nbytes=nbytes,
                    mtime=stat.st_mtime,
                )
            )
        found.sort(key=lambda entry: (entry.mtime, entry.path.name))
        return found

    @property
    def total_bytes(self) -> int:
        return sum(entry.nbytes for entry in self.entries())

    def stats(self) -> Dict[str, object]:
        """Tier inventory (the ``cache --stats`` / service payload), with the
        analysis products outside the budget under ``"products"``."""
        entries = self.entries()
        by_kind: Dict[str, Dict[str, int]] = {}
        for entry in entries:
            bucket = by_kind.setdefault(entry.kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += entry.nbytes
        products = {"entries": 0, "bytes": 0}
        for path in (self.root / PRODUCTS_DIR).glob("analysis_*"):
            if ".tmp-" in path.name:
                continue
            try:
                products["bytes"] += path.stat().st_size
            except OSError:
                continue  # raced a writer's rename
            products["entries"] += 1
        return {
            "root": str(self.root),
            "max_bytes": self.max_bytes,
            "entries": len(entries),
            "total_bytes": sum(entry.nbytes for entry in entries),
            "by_kind": by_kind,
            "products": products,
        }

    # ------------------------------------------------------------------
    # recency + admission
    # ------------------------------------------------------------------
    def touch(self, path: Optional[PathLike]) -> None:
        """Bump an entry's LRU clock (cache hit).  Missing paths are fine."""
        if path is None:
            return
        try:
            os.utime(path, None)
        except OSError:
            pass

    def admit(self, path: Optional[PathLike]) -> List[Path]:
        """Record a fresh write and evict over-budget LRU entries.

        The admitted entry itself is never chosen for eviction (an entry
        larger than the whole budget would otherwise delete itself the
        moment it landed), so the tier can transiently exceed the budget by
        one entry until something newer displaces it.
        """
        self.touch(path)
        if self.max_bytes is None:
            return []
        return self.prune(protect=path)

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _remove(self, path: Path) -> None:
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)
        else:
            try:
                path.unlink()
            except OSError:
                pass

    def _sweep_stale_tmp(self) -> None:
        """Drop ``*.tmp-*`` leftovers a crashed writer abandoned (products
        included)."""
        deadline = time.time() - self.stale_after_s
        children: List[Path] = []
        for directory in (self.root, self.root / PRODUCTS_DIR):
            try:
                children.extend(directory.iterdir())
            except FileNotFoundError:
                pass
        for child in children:
            if ".tmp-" not in child.name:
                continue
            try:
                if child.stat().st_mtime < deadline:
                    self._remove(child)
            except OSError:
                pass

    @contextmanager
    def _lock(self, timeout_s: float = 5.0) -> Iterator[bool]:
        """Best-effort exclusive tier lock with stale-lock takeover.

        Yields ``True`` when held.  A lock older than ``stale_after_s``
        (crashed pruner) is broken and re-acquired; an actively contended
        lock times out and yields ``False`` — callers then skip pruning
        rather than wedge, since eviction is advisory.
        """
        lock_path = self.root / LOCK_NAME
        deadline = time.monotonic() + timeout_s
        fd: Optional[int] = None
        while True:
            try:
                fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, f"{os.getpid()} {time.time()}\n".encode())
                break
            except FileExistsError:
                try:
                    if lock_path.stat().st_mtime < time.time() - self.stale_after_s:
                        lock_path.unlink(missing_ok=True)  # stale-lock takeover
                        continue
                except OSError:
                    continue
                if time.monotonic() >= deadline:
                    yield False
                    return
                time.sleep(0.05)
        try:
            yield True
        finally:
            if fd is not None:
                os.close(fd)
            lock_path.unlink(missing_ok=True)

    def prune(
        self,
        max_bytes: Optional[int] = None,
        *,
        protect: Optional[PathLike] = None,
    ) -> List[Path]:
        """Evict least-recently-used entries until the tier fits the budget.

        Returns the evicted paths.  ``protect`` (if given) is exempt — see
        :meth:`admit`.  With neither ``max_bytes`` here nor a tier budget
        configured, only stale tmp debris is swept.
        """
        budget = self.max_bytes if max_bytes is None else int(max_bytes)
        protected = Path(protect).resolve() if protect is not None else None
        evicted: List[Path] = []
        with self._lock() as held:
            if not held:
                return evicted
            self._sweep_stale_tmp()
            if budget is None:
                return evicted
            entries = self.entries()
            total = sum(entry.nbytes for entry in entries)
            for entry in entries:
                if total <= budget:
                    break
                if protected is not None and entry.path.resolve() == protected:
                    continue
                self._remove(entry.path)
                total -= entry.nbytes
                evicted.append(entry.path)
        return evicted


def format_stats(stats: Dict[str, object]) -> str:
    """Human-readable ``cache --stats`` rendering."""
    lines = [
        f"cache tier: {stats['root']}",
        f"  entries:     {stats['entries']}",
        f"  total bytes: {stats['total_bytes']:,}"
        f" ({stats['total_bytes'] / 2**20:.1f} MiB)",  # type: ignore[operator]
        "  max bytes:   "
        + (
            f"{stats['max_bytes']:,}"  # type: ignore[str-bytes-safe]
            if stats["max_bytes"] is not None
            else "unbounded"
        ),
    ]
    for kind, bucket in sorted(stats["by_kind"].items()):  # type: ignore[union-attr]
        lines.append(
            f"  {kind:10s} {bucket['entries']:4d} entr"
            f"{'y' if bucket['entries'] == 1 else 'ies'}, "
            f"{bucket['bytes']:,} bytes"
        )
    products = stats["products"]
    lines.append(
        f"  products   {products['entries']:4d} "  # type: ignore[index]
        f"(outside the budget), {products['bytes']:,} bytes"  # type: ignore[index]
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign cache",
        description="Inspect or prune the shared campaign cache tier.",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        required=True,
        help="the cache directory to manage",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the tier inventory (default action)",
    )
    parser.add_argument(
        "--prune",
        action="store_true",
        help="evict least-recently-used entries down to the budget",
    )
    parser.add_argument(
        "--max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="tier budget in MiB (default: $REPRO_CACHE_MAX_BYTES)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro cache``."""
    args = build_parser().parse_args(argv)
    max_bytes = int(args.max_mb * 2**20) if args.max_mb is not None else None
    tier = CacheTier(args.cache_dir, max_bytes=max_bytes)
    if args.prune:
        if tier.max_bytes is None:
            print(
                "[repro-cache] no budget: pass --max-mb or set "
                f"${CACHE_MAX_BYTES_ENV} (only sweeping stale tmp files)"
            )
        evicted = tier.prune()
        for path in evicted:
            print(f"[repro-cache] evicted {path.name}")
        print(f"[repro-cache] evicted {len(evicted)} entr"
              f"{'y' if len(evicted) == 1 else 'ies'}")
    print(format_stats(tier.stats()))
    return 0


__all__ = [
    "CacheTier",
    "CacheEntry",
    "format_stats",
    "main",
    "CACHE_MAX_BYTES_ENV",
    "PRODUCTS_DIR",
]
