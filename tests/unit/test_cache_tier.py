"""Unit tests for the size-bounded LRU cache tier and its CLI."""

import os
import time

import pytest

from repro.io.cache_tier import (
    CACHE_MAX_BYTES_ENV,
    PRODUCTS_DIR,
    CacheTier,
    format_stats,
    main as cache_main,
)

KB = 1024


def _entry(root, name, nbytes, age_s=0.0):
    """Create a cache entry of ``nbytes`` whose mtime is ``age_s`` ago."""
    path = root / name
    if name.endswith(".store"):
        path.mkdir()
        (path / "manifest.json").write_bytes(b"{}")
        (path / "group-00000.bin").write_bytes(b"\0" * (nbytes - 2))
    else:
        path.write_bytes(b"\0" * nbytes)
    stamp = time.time() - age_s
    os.utime(path, (stamp, stamp))
    return path


class TestInventory:
    def test_entries_sorted_least_recently_used_first(self, tmp_path):
        tier = CacheTier(tmp_path)
        _entry(tmp_path, "analysis_b.pkl", KB, age_s=10)
        _entry(tmp_path, "analysis_a.pkl", KB, age_s=30)
        _entry(tmp_path, "analysis_c.pkl", KB, age_s=20)
        assert [e.path.name for e in tier.entries()] == [
            "analysis_a.pkl",
            "analysis_c.pkl",
            "analysis_b.pkl",
        ]

    def test_kind_classification_and_store_dir_sizing(self, tmp_path):
        tier = CacheTier(tmp_path)
        _entry(tmp_path, "analysis_x.pkl", 2 * KB)
        _entry(tmp_path, "shards_x.store", 4 * KB)
        _entry(tmp_path, "notes.txt", 16)
        stats = tier.stats()
        assert stats["entries"] == 3
        assert set(stats["by_kind"]) == {"analysis", "store", "other"}
        assert stats["by_kind"]["analysis"] == {"entries": 1, "bytes": 2 * KB}
        # a .store directory is one unit, sized as its file tree
        assert stats["by_kind"]["store"] == {"entries": 1, "bytes": 4 * KB}
        assert stats["by_kind"]["other"]["entries"] == 1
        assert stats["total_bytes"] == tier.total_bytes
        assert "cache tier" in format_stats(stats)

    def test_lock_and_inflight_tmp_files_are_not_entries(self, tmp_path):
        tier = CacheTier(tmp_path)
        _entry(tmp_path, "analysis_x.pkl", KB)
        (tmp_path / ".tier.lock").write_text("1")
        (tmp_path / "analysis_y.pkl.tmp-42").write_bytes(b"\0" * KB)
        assert [e.path.name for e in tier.entries()] == ["analysis_x.pkl"]


class TestEviction:
    def test_prunes_lru_first_until_under_budget(self, tmp_path):
        tier = CacheTier(tmp_path, max_bytes=2 * KB + 512)
        _entry(tmp_path, "analysis_old.pkl", KB, age_s=30)
        _entry(tmp_path, "analysis_mid.pkl", KB, age_s=20)
        _entry(tmp_path, "analysis_new.pkl", KB, age_s=10)
        evicted = tier.prune()
        assert [p.name for p in evicted] == ["analysis_old.pkl"]
        assert tier.total_bytes == 2 * KB

    def test_store_directories_are_evicted_whole(self, tmp_path):
        tier = CacheTier(tmp_path, max_bytes=KB)
        store = _entry(tmp_path, "shards_big.store", 4 * KB, age_s=20)
        keep = _entry(tmp_path, "analysis_new.pkl", KB, age_s=5)
        assert tier.prune() == [store]
        assert not store.exists()
        assert keep.exists()

    def test_touch_rescues_an_entry_from_eviction(self, tmp_path):
        tier = CacheTier(tmp_path, max_bytes=KB)
        oldest = _entry(tmp_path, "analysis_a.pkl", KB, age_s=30)
        newer = _entry(tmp_path, "analysis_b.pkl", KB, age_s=10)
        tier.touch(oldest)  # cache hit: now most recently used
        assert tier.prune() == [newer]
        assert oldest.exists()

    def test_admit_never_evicts_the_admitted_entry(self, tmp_path):
        tier = CacheTier(tmp_path, max_bytes=KB)
        huge = _entry(tmp_path, "shards_huge.store", 8 * KB)
        assert tier.admit(huge) == []
        assert huge.exists()  # over budget, but not a self-eviction
        # the next admission displaces it
        fresh = _entry(tmp_path, "analysis_fresh.pkl", KB)
        assert tier.admit(fresh) == [huge]
        assert fresh.exists() and not huge.exists()

    def test_no_budget_means_no_eviction(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_MAX_BYTES_ENV, raising=False)
        tier = CacheTier(tmp_path)
        entry = _entry(tmp_path, "analysis_x.pkl", 8 * KB)
        assert tier.admit(entry) == []
        assert tier.prune() == []
        assert entry.exists()

    def test_env_var_supplies_the_default_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, str(KB))
        tier = CacheTier(tmp_path)
        assert tier.max_bytes == KB
        _entry(tmp_path, "analysis_a.pkl", KB, age_s=20)
        _entry(tmp_path, "analysis_b.pkl", KB, age_s=10)
        assert [p.name for p in tier.prune()] == ["analysis_a.pkl"]


class TestProducts:
    def test_products_are_outside_the_budget(self, tmp_path):
        tier = CacheTier(tmp_path, max_bytes=0)
        store = _entry(tmp_path, "shards_x.store", 4 * KB, age_s=5)
        (tmp_path / PRODUCTS_DIR).mkdir()
        product = _entry(tmp_path / PRODUCTS_DIR, "analysis_x.pkl", 2 * KB, age_s=30)
        assert [e.path for e in tier.entries()] == [store]
        assert tier.prune() == [store]
        assert product.exists()
        stats = tier.stats()
        assert stats["total_bytes"] == 0
        assert stats["products"] == {"entries": 1, "bytes": 2 * KB}
        assert "outside the budget" in format_stats(stats)

    def test_stale_product_tmp_debris_is_swept(self, tmp_path):
        tier = CacheTier(tmp_path, max_bytes=64 * KB, stale_after_s=5.0)
        (tmp_path / PRODUCTS_DIR).mkdir()
        stale = _entry(tmp_path / PRODUCTS_DIR, "analysis_x.pkl.tmp-1", KB, age_s=60)
        fresh = _entry(tmp_path / PRODUCTS_DIR, "analysis_y.pkl.tmp-2", KB)
        tier.prune()
        assert not stale.exists()
        assert fresh.exists()
        assert tier.stats()["products"] == {"entries": 0, "bytes": 0}


class TestCrashTolerance:
    def test_stale_tmp_debris_is_swept_fresh_kept(self, tmp_path):
        tier = CacheTier(tmp_path, max_bytes=64 * KB, stale_after_s=5.0)
        stale = _entry(tmp_path, "analysis_x.pkl.tmp-1", KB, age_s=60)
        fresh = _entry(tmp_path, "analysis_y.pkl.tmp-2", KB, age_s=0)
        tier.prune()
        assert not stale.exists()
        assert fresh.exists()

    def test_stale_lock_is_taken_over(self, tmp_path):
        tier = CacheTier(tmp_path, max_bytes=KB, stale_after_s=0.01)
        lock = tmp_path / ".tier.lock"
        lock.write_text("dead-writer")
        time.sleep(0.05)
        _entry(tmp_path, "analysis_a.pkl", KB, age_s=20)
        _entry(tmp_path, "analysis_b.pkl", KB, age_s=10)
        # the abandoned lock does not wedge eviction
        assert [p.name for p in tier.prune()] == ["analysis_a.pkl"]
        assert not lock.exists()

    def test_contended_lock_skips_pruning(self, tmp_path):
        tier = CacheTier(tmp_path, max_bytes=KB)
        (tmp_path / ".tier.lock").write_text("other-pruner")
        entry = _entry(tmp_path, "analysis_a.pkl", 4 * KB, age_s=20)
        with tier._lock(timeout_s=0.1) as held:
            assert not held
        assert entry.exists()


class TestCLI:
    def test_stats_and_prune(self, tmp_path, capsys):
        _entry(tmp_path, "analysis_a.pkl", KB, age_s=20)
        _entry(tmp_path, "shards_b.store", 4 * KB, age_s=10)
        assert cache_main(["--cache-dir", str(tmp_path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "analysis" in out and "store" in out

        assert (
            cache_main(
                ["--cache-dir", str(tmp_path), "--prune", "--max-mb", "0.004"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "evicted analysis_a.pkl" in out
        assert not (tmp_path / "analysis_a.pkl").exists()
        assert (tmp_path / "shards_b.store").exists()

    def test_prune_without_budget_warns(self, tmp_path, capsys):
        _entry(tmp_path, "analysis_a.pkl", KB)
        assert cache_main(["--cache-dir", str(tmp_path), "--prune"]) == 0
        assert "no budget" in capsys.readouterr().out
