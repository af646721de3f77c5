"""Unit tests for dataset persistence and the text/CSV figure exporters."""

import json

import numpy as np
import pytest

from repro.core.timing import TimingDataset
from repro.experiments.config import CampaignConfig
from repro.experiments.session import (
    CampaignSession,
    campaign_store_path,
    open_cached_campaign,
    write_campaign_store,
)
from repro.io import dataset_to_csv, load_dataset, save_dataset, validate_columns
from repro.io.shard_store import STORE_FORMAT_VERSION, ShardStore
from repro.service.jobs import dataset_digest
from repro.stats.histogram import fixed_width_histogram
from repro.stats.percentiles import PercentileSeries
from repro.viz import (
    ascii_histogram,
    ascii_percentile_plot,
    ascii_table,
    export_histogram_csv,
    export_percentiles_csv,
    export_rows_csv,
)


@pytest.fixture()
def small_dataset():
    rng = np.random.default_rng(9)
    times = rng.uniform(1e-3, 2e-3, size=(1, 2, 3, 4))
    return TimingDataset.from_compute_times(
        times, {"application": "iodemo", "seed": 9, "machine": "manzano"}
    )


class TestDatasetIO:
    def test_round_trip_preserves_everything(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "data")
        assert path.suffix == ".npz"
        loaded = load_dataset(path)
        assert loaded.metadata == small_dataset.metadata
        np.testing.assert_array_equal(
            loaded.compute_times_s, small_dataset.compute_times_s
        )
        np.testing.assert_array_equal(loaded.column("thread"), small_dataset.column("thread"))

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.npz")

    def test_csv_export_has_header_and_rows(self, small_dataset, tmp_path):
        path = dataset_to_csv(small_dataset, tmp_path / "data.csv", unit="us")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial,process,iteration,thread,compute_time_us"
        assert len(lines) == 1 + len(small_dataset)

    def test_csv_invalid_unit_rejected(self, small_dataset, tmp_path):
        with pytest.raises(ValueError):
            dataset_to_csv(small_dataset, tmp_path / "x.csv", unit="h")

    def test_schema_validation(self):
        with pytest.raises(ValueError, match="missing"):
            validate_columns({"trial": np.zeros(2)})
        with pytest.raises(ValueError, match="unknown"):
            validate_columns(
                {
                    "trial": np.zeros(2),
                    "process": np.zeros(2),
                    "iteration": np.zeros(2),
                    "thread": np.zeros(2),
                    "compute_time_s": np.zeros(2),
                    "bogus": np.zeros(2),
                }
            )


class TestAsciiRendering:
    def test_histogram_rendering_contains_counts(self, rng):
        hist = fixed_width_histogram(rng.normal(26e-3, 0.5e-3, size=500), 0.2e-3)
        text = ascii_histogram(hist)
        assert "500 samples" in text
        assert "#" in text

    def test_histogram_merging_for_many_bins(self, rng):
        hist = fixed_width_histogram(rng.uniform(0.0, 1.0, size=2000), 1e-3)
        text = ascii_histogram(hist, max_rows=20)
        assert "bins/row" in text
        assert len(text.splitlines()) <= 22

    def test_percentile_plot_dimensions(self, rng):
        series = PercentileSeries.from_samples(rng.normal(25.0, 1.0, size=(50, 200)))
        text = ascii_percentile_plot(series, width=60, height=12)
        lines = text.splitlines()
        assert len(lines) == 13
        assert "p50" in lines[-1]

    def test_table_alignment_and_floats(self):
        rows = [
            {"application": "MiniFE", "value": 3.14159},
            {"application": "MiniMD", "value": 77.0, "extra": "x"},
        ]
        text = ascii_table(rows)
        assert "MiniFE" in text and "3.14" in text and "extra" in text

    def test_empty_table(self):
        assert ascii_table([]) == "(empty table)"

    def test_invalid_dimensions_rejected(self, rng):
        series = PercentileSeries.from_samples(rng.normal(size=(5, 50)))
        with pytest.raises(ValueError):
            ascii_percentile_plot(series, width=5)
        hist = fixed_width_histogram([1.0, 2.0], 0.5)
        with pytest.raises(ValueError):
            ascii_histogram(hist, width=2)


class TestCsvExport:
    def test_histogram_csv(self, rng, tmp_path):
        hist = fixed_width_histogram(rng.normal(size=100), 0.5)
        path = export_histogram_csv(hist, tmp_path / "h.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == hist.n_bins + 1
        assert lines[0].startswith("bin_start")

    def test_percentiles_csv(self, rng, tmp_path):
        series = PercentileSeries.from_samples(rng.normal(size=(8, 100)))
        path = export_percentiles_csv(series, tmp_path / "p.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 9
        assert lines[0].split(",")[0] == "iteration"

    def test_rows_csv_union_of_keys(self, tmp_path):
        rows = [{"a": 1, "b": 2}, {"a": 3, "c": 4}]
        path = export_rows_csv(rows, tmp_path / "rows.csv")
        header = path.read_text().splitlines()[0]
        assert header == "a,b,c"


class TestAtomicExport:
    def test_save_leaves_no_tmp_sibling(self, small_dataset, tmp_path):
        target = save_dataset(small_dataset, tmp_path / "dataset_x.npz")
        assert target.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["dataset_x.npz"]

    def test_format_version_mismatch_rejected(self, small_dataset, tmp_path):
        target = tmp_path / "dataset_x.npz"
        payload = {n: small_dataset.column(n) for n in small_dataset.columns}
        payload["__metadata__"] = np.array(
            json.dumps({"format_version": 999, "metadata": {}})
        )
        with open(target, "wb") as handle:
            np.savez_compressed(handle, **payload)
        with pytest.raises(ValueError, match="format version"):
            load_dataset(target)


class TestAtomicCacheWrites:
    """Crash-safe campaign cache writes and corruption-tolerant lookups."""

    @pytest.fixture()
    def config(self):
        return CampaignConfig.smoke("minife")

    @pytest.fixture()
    def entry(self, config, tmp_path):
        """A cached smoke campaign: its store path and its digest."""
        result = CampaignSession(config, cache_dir=tmp_path).run()
        path = campaign_store_path(tmp_path, config)
        assert path.is_dir()
        return path, result.dataset.compute_times_s.tobytes()

    def test_write_leaves_no_tmp_sibling(self, entry, tmp_path):
        path, _ = entry
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert not [p for p in path.iterdir() if ".tmp-" in p.name]

    def test_lookup_missing_returns_none(self, config, tmp_path):
        assert open_cached_campaign(tmp_path / "absent.store", config) is None
        assert open_cached_campaign(None, config) is None

    def test_intact_entry_is_a_hit(self, config, entry):
        path, digest = entry
        hit = open_cached_campaign(path, config)
        assert hit.from_cache
        assert hit.dataset.compute_times_s.tobytes() == digest

    @pytest.mark.parametrize("garbage", ["this is not json", "[]", "{}"])
    def test_garbage_manifest_recovered(self, config, entry, garbage):
        path, _ = entry
        (path / "manifest.json").write_text(garbage)
        assert open_cached_campaign(path, config) is None
        assert not path.exists()  # removed so it cannot poison later hits

    def test_truncated_group_recovered(self, config, entry):
        """A group file cut short would otherwise fail on the first mmap."""
        path, _ = entry
        group = path / "group-00000.bin"
        blob = group.read_bytes()
        group.write_bytes(blob[: len(blob) // 2])
        assert open_cached_campaign(path, config) is None
        assert not path.exists()

    def test_grown_group_recovered(self, config, entry):
        path, _ = entry
        with open(path / "group-00000.bin", "ab") as handle:
            handle.write(b"\0")
        assert open_cached_campaign(path, config) is None
        assert not path.exists()

    def test_missing_group_recovered(self, config, entry):
        path, _ = entry
        (path / "group-00000.bin").unlink()
        assert open_cached_campaign(path, config) is None
        assert not path.exists()

    def test_format_version_mismatch_recovered(self, config, entry):
        path, _ = entry
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 999
        (path / "manifest.json").write_text(json.dumps(manifest))
        assert open_cached_campaign(path, config) is None
        assert not path.exists()

    def test_incomplete_store_recovered(self, config, entry):
        path, _ = entry
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["complete"] = False
        (path / "manifest.json").write_text(json.dumps(manifest))
        assert open_cached_campaign(path, config) is None
        assert not path.exists()

    @pytest.mark.parametrize("store", [None, True])
    def test_bit_flip_in_a_group_is_a_miss_that_heals(
        self, config, entry, tmp_path, store
    ):
        """A same-size corruption passes the size check; the crc32 catches it."""
        path, digest = entry
        group = path / "group-00000.bin"
        blob = bytearray(group.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        group.write_bytes(bytes(blob))
        assert group.stat().st_size == len(blob)
        with pytest.raises(ValueError, match="crc32"):
            ShardStore.open(path).verify()
        result = CampaignSession(config, cache_dir=tmp_path).run(store=store)
        assert not result.from_cache
        healed = open_cached_campaign(path, config)
        assert healed is not None and healed.from_cache
        assert healed.dataset.compute_times_s.tobytes() == digest
        assert dataset_digest(healed.dataset) == dataset_digest(result.dataset)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_version_entry_is_rewritten_as_version_3(
        self, config, entry, tmp_path, version
    ):
        """An entry of an older format is removed and recomputed in the
        current one: version 1 held one raw blob per column (40 B per
        sample), version 2 the same cube as version 3 but a manifest that
        also listed per-sample planes and the producer's shards."""
        path, digest = entry
        samples = len(digest) // 8
        group = path / "group-00000.bin"
        manifest = json.loads((path / "manifest.json").read_text())
        if version == 1:
            names = ["compute_time_s", "end_ns", "iteration", "process", "start_ns",
                     "thread", "trial"]
            sizes = {"compute_time_s": 8, "end_ns": 8, "start_ns": 8}
            columns, offset = [], 16
            for name in names:
                size = sizes.get(name, 4)
                kind = "<f8" if name == "compute_time_s" else f"<i{size}"
                columns.append({"name": name, "dtype": kind, "offset": offset})
                offset += size * samples
            group.write_bytes(b"REPRO-SHARD-GRP1" + bytes(offset - 16))
            manifest["groups"] = [
                {
                    "file": group.name,
                    "n_samples": samples,
                    "shards": [{"trial": 0, "process": None, "n_samples": samples}],
                    "columns": columns,
                }
            ]
        else:
            for entry_group in manifest["groups"]:
                size = entry_group["n_samples"] // len(entry_group["slices"])
                entry_group["planes"] = []
                entry_group["shards"] = [
                    {"trial": trial, "process": process, "n_samples": size}
                    for trial, process in entry_group["slices"]
                ]
        manifest["format_version"] = version
        (path / "manifest.json").write_text(json.dumps(manifest))
        assert open_cached_campaign(path, config) is None
        assert not path.exists()
        CampaignSession(config, cache_dir=tmp_path).run()
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format_version"] == STORE_FORMAT_VERSION == 3
        assert "planes" not in manifest["groups"][0]
        assert group.stat().st_size == 16 + 8 * samples
        hit = open_cached_campaign(path, config)
        assert hit.dataset.compute_times_s.tobytes() == digest

    def test_concurrent_writers_publish_one_intact_entry(self, config, tmp_path):
        """Writers racing on one entry (service job threads share a pid)."""
        import sys
        import threading

        result = CampaignSession(config).run()
        path = campaign_store_path(tmp_path, config)
        errors = []

        def write():
            try:
                for _ in range(10):
                    write_campaign_store(
                        path, result.iter_column_blocks(), result.metadata
                    )
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        hit = open_cached_campaign(path, config)
        assert hit is not None
        np.testing.assert_array_equal(
            hit.dataset.compute_times_s, result.dataset.compute_times_s
        )

    @pytest.mark.parametrize("store", [None, True])
    def test_session_recomputes_over_corrupt_cache(
        self, config, entry, tmp_path, store
    ):
        """End to end: a poisoned cache entry heals on the next run."""
        path, digest = entry
        group = path / "group-00000.bin"
        group.write_bytes(group.read_bytes()[:100])

        result = CampaignSession(config, cache_dir=tmp_path).run(store=store)
        assert not result.from_cache  # the poisoned entry was discarded
        assert result.dataset.compute_times_s.tobytes() == digest
        reloaded = CampaignSession(config, cache_dir=tmp_path).run(store=store)
        assert reloaded.from_cache  # ... and rewritten healthy
        assert reloaded.dataset.compute_times_s.tobytes() == digest
