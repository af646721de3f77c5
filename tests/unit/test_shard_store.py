"""Unit tests for the spillable, memory-mapped campaign shard store."""

import contextlib
import errno
import gc
import json
import os
import pickle
import shutil

import numpy as np
import pytest

from digests import CAMPAIGN_SMOKE_DIGESTS
from repro.analysis import AnalysisContext, run_columnar_analyses
from repro.core.aggregation import canonical_block
from repro.core.timing import TimingDataset
from repro.experiments.backends import CampaignTensorBackend
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession, campaign_store_path
from repro.io.shard_store import (
    DEFAULT_SPILL_THRESHOLD_BYTES,
    MANIFEST_NAME,
    STORE_FORMAT_VERSION,
    ShardStore,
    StoredRows,
    publish_store,
)
from repro.service.jobs import dataset_digest
from shards import dataset_shards, shards_of

# The default-backend smoke digests the scenario matrix pins
# (tests/digests.py): a campaign that goes through the store must merge
# back to these bits exactly.
SEED_DIGESTS = CAMPAIGN_SMOKE_DIGESTS


@pytest.fixture(scope="module")
def shards():
    """Per-(trial, process) shards (one-slice blocks) of a toy campaign."""
    rng = np.random.default_rng(99)
    times = np.abs(rng.normal(20e-3, 1e-3, size=(2, 3, 4, 8)))
    dataset = TimingDataset.from_compute_times(times, {"application": "toy"})
    return dataset_shards(dataset)


def _extend(store, shards):
    for shard in shards:
        store.append_block(shard)


class TestFormat:
    def test_round_trip_is_bit_identical(self, tmp_path, shards):
        store = ShardStore.create(tmp_path / "c.store", spill_threshold_bytes=1)
        _extend(store, shards)
        store.finalize({"application": "toy"})

        reloaded = ShardStore.open(tmp_path / "c.store")
        assert reloaded.complete
        assert reloaded.metadata == {"application": "toy"}
        assert reloaded.n_shards == len(shards)
        for original, stored in zip(shards, shards_of(reloaded.iter_column_blocks())):
            assert stored.slices == original.slices
            for name, values in original.columns.items():
                recovered = stored.columns[name]
                assert np.asarray(recovered).dtype == np.asarray(values).dtype
                np.testing.assert_array_equal(recovered, values)

    def test_spill_threshold_controls_grouping(self, tmp_path, shards):
        eager = ShardStore.create(tmp_path / "eager.store", spill_threshold_bytes=1)
        _extend(eager, shards)
        eager.flush()
        assert eager.n_groups == len(shards)

        lazy = ShardStore.create(
            tmp_path / "lazy.store",
            spill_threshold_bytes=DEFAULT_SPILL_THRESHOLD_BYTES,
        )
        _extend(lazy, shards)
        assert lazy.n_groups == 0  # still buffered
        assert lazy.n_shards == len(shards)  # but visible to introspection
        lazy.flush()
        assert lazy.n_groups == 1

    def test_reads_are_memory_mapped_views(self, tmp_path, shards):
        store = ShardStore.create(tmp_path / "c.store")
        _extend(store, shards)
        store.flush()
        block = next(ShardStore.open(tmp_path / "c.store").iter_column_blocks())
        shard = block.rows(block.slices[0])
        # the samples are mapped; the ids are derived from the manifest
        assert isinstance(shard.columns["compute_time_s"], np.memmap)
        for name in ("trial", "process", "iteration", "thread"):
            assert not isinstance(shard.columns[name], np.memmap)

    def test_dataset_merges_with_store_metadata(self, tmp_path, shards):
        store = ShardStore.create(tmp_path / "c.store", spill_threshold_bytes=1)
        _extend(store, shards)
        store.finalize({"application": "toy"})
        merged = store.dataset()
        direct = TimingDataset.merge(shards, metadata={"application": "toy"})
        assert dataset_digest(merged) == dataset_digest(direct)
        assert merged.metadata["application"] == "toy"

    def test_writable_lifecycle_errors(self, tmp_path, shards):
        path = tmp_path / "c.store"
        store = ShardStore.create(path)
        store.append_block(shards[0])
        store.finalize()
        with pytest.raises(ValueError, match="finalized"):
            store.append_block(shards[1])
        with pytest.raises(FileExistsError):
            ShardStore.create(path)
        with pytest.raises(FileNotFoundError):
            ShardStore.open(tmp_path / "missing.store")
        with pytest.raises(ValueError, match="read-only"):
            ShardStore.open(path).append_block(shards[0])
        with pytest.raises(ValueError, match="mode"):
            ShardStore(path, mode="x")

    def test_unsupported_format_version_rejected(self, tmp_path, shards):
        path = tmp_path / "c.store"
        store = ShardStore.create(path)
        store.append_block(shards[0])
        store.finalize()
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == STORE_FORMAT_VERSION
        manifest["format_version"] = STORE_FORMAT_VERSION + 1
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version"):
            ShardStore.open(path)

    def test_mismatched_ids_rejected(self, tmp_path, shards):
        store = ShardStore.create(tmp_path / "c.store")
        store.append_block(shards[0])
        columns = shards[1].columns
        keep = columns["iteration"] < 3
        kept = {name: values[keep] for name, values in columns.items()}
        (sl,) = shards[1].slices
        store.append_block(canonical_block(kept, [sl._replace(stop=int(keep.sum()))]))
        with pytest.raises(ValueError, match="same ids"):
            store.flush()

    def test_raw_clock_columns_are_not_stored(self, tmp_path, shards):
        # a group holds compute times only: 8 B per sample whatever columns
        # the appended shard was built from
        store = ShardStore.create(tmp_path / "c.store")
        widened = dict(shards[0].columns)
        widened["start_ns"] = np.zeros(shards[0].n_samples, dtype=np.int64)
        store.append_block(canonical_block(widened, shards[0].slices))
        store.finalize()
        (stored,) = ShardStore.open(tmp_path / "c.store").iter_column_blocks()
        assert set(stored.columns) == {
            "trial", "process", "iteration", "thread", "compute_time_s"
        }
        np.testing.assert_array_equal(
            stored.columns["compute_time_s"], shards[0].columns["compute_time_s"]
        )
        assert store.nbytes == 16 + 8 * shards[0].n_samples


class TestConcurrentAppend:
    def test_reader_snapshots_published_groups(self, tmp_path, shards):
        path = tmp_path / "c.store"
        writer = ShardStore(path, mode="a", spill_threshold_bytes=1)
        writer.append_block(shards[0])  # threshold 1: every append publishes

        reader = ShardStore.open(path)
        assert len(shards_of(reader.iter_column_blocks())) == 1

        writer.append_block(shards[1])
        writer.append_block(shards[2])
        # the same reader sees the new groups on its *next* iteration
        assert len(shards_of(reader.iter_column_blocks())) == 3

    def test_in_flight_iteration_is_unaffected_by_appends(self, tmp_path, shards):
        path = tmp_path / "c.store"
        writer = ShardStore(path, mode="a", spill_threshold_bytes=1)
        for shard in shards[:2]:
            writer.append_block(shard)

        reader = ShardStore.open(path)
        iterator = reader.iter_column_blocks()
        first = next(iterator)
        np.testing.assert_array_equal(
            first.columns["compute_time_s"], shards[0].columns["compute_time_s"]
        )
        writer.append_block(shards[2])  # published mid-iteration
        # the running iterator still covers exactly its snapshot
        assert len(list(iterator)) == 1

    def test_writer_buffer_visible_through_its_own_iteration(
        self, tmp_path, shards
    ):
        writer = ShardStore(tmp_path / "c.store", mode="a")
        _extend(writer, shards)
        # iter_column_blocks on a writable store flushes first: nothing is lost
        assert len(shards_of(writer.iter_column_blocks())) == len(shards)
        assert writer.n_groups == 1


class TestPublish:
    def test_staged_store_published_atomically(self, tmp_path, shards):
        staged = tmp_path / "final.store.tmp-123"
        final = tmp_path / "final.store"
        store = ShardStore.create(staged, spill_threshold_bytes=1)
        _extend(store, shards)
        store.finalize()
        assert publish_store(staged, final) == final
        assert not staged.exists()
        assert ShardStore.open(final).complete

    def test_losing_the_publish_race_discards_staged(self, tmp_path, shards):
        final = tmp_path / "final.store"
        winner = ShardStore.create(final, spill_threshold_bytes=1)
        winner.append_block(shards[0])
        winner.finalize()

        staged = tmp_path / "final.store.tmp-456"
        loser = ShardStore.create(staged, spill_threshold_bytes=1)
        loser.append_block(shards[0])
        loser.finalize()
        publish_store(staged, final)
        assert not staged.exists()
        assert ShardStore.open(final).n_shards == 1

    def test_publishing_over_a_non_store_directory_raises(self, tmp_path, shards):
        final = tmp_path / "final.store"
        final.mkdir()
        (final / "stray.txt").write_text("not a store")
        staged = tmp_path / "final.store.tmp-789"
        store = ShardStore.create(staged, spill_threshold_bytes=1)
        store.append_block(shards[0])
        store.finalize()
        with pytest.raises(OSError):
            publish_store(staged, final)
        assert ShardStore.open(staged).complete  # the staged copy survives


class TestCampaignRoundTrip:
    @pytest.mark.parametrize("application", sorted(SEED_DIGESTS))
    def test_stored_campaign_matches_pinned_digest(self, tmp_path, application):
        """A campaign spilled through the store merges back bit-identically.

        Two workers cut the two-shard smoke campaign into one-shard chunks,
        so the store holds one group per shard."""
        config = CampaignConfig.smoke(application).parallel(2)
        session = CampaignSession(config, cache_dir=tmp_path / "cache")
        result = session.run(
            application, store=True, spill_threshold_bytes=1, use_cache=False
        )
        assert result.store is not None
        assert result.store.n_groups > 1  # actually spilled in groups
        assert dataset_digest(result.dataset) == SEED_DIGESTS[application]

    def test_completed_store_is_reused_from_cache(self, tmp_path):
        config = CampaignConfig.smoke("minife")
        session = CampaignSession(config, cache_dir=tmp_path / "cache")
        first = session.run("minife", store=True)
        assert not first.from_cache
        second = session.run("minife", store=True)
        assert second.from_cache
        assert second.store.path == campaign_store_path(
            tmp_path / "cache", session.config_for("minife")
        )
        assert dataset_digest(second.dataset) == SEED_DIGESTS["minife"]


class TestStoredRows:
    """Re-readable handles on a stored slice's samples: what a store-backed
    analysis keeps between its fold and its finalize instead of the mapped
    pages."""

    @staticmethod
    def _blocks(path, shards, spill_threshold_bytes=DEFAULT_SPILL_THRESHOLD_BYTES):
        store = ShardStore.create(path, spill_threshold_bytes=spill_threshold_bytes)
        _extend(store, shards)
        store.finalize()
        return list(ShardStore.open(path).iter_column_blocks())

    @staticmethod
    def _handles(block):
        return [(block.stored.row(s), cube) for s, cube in enumerate(block.cube)]

    @pytest.mark.parametrize("threshold", [1, 2048, DEFAULT_SPILL_THRESHOLD_BYTES])
    def test_handles_read_back_every_slice(self, tmp_path, shards, threshold):
        blocks = self._blocks(tmp_path / "c.store", shards, threshold)
        assert sum(len(block.slices) for block in blocks) == len(shards)
        for block in blocks:
            assert isinstance(block.stored, StoredRows)
            assert block.stored.shape == block.cube.shape
            for rows, cube in self._handles(block):
                assert isinstance(rows, StoredRows)
                assert rows.shape == cube.shape == (4, 8)
                np.testing.assert_array_equal(rows[:], cube)

    @pytest.mark.parametrize(
        "rows",
        [
            slice(None),
            slice(0, 1),
            slice(1, 3),
            slice(2, None),
            slice(3, 3),
            slice(-2, None),
            slice(0, 100),
        ],
        ids=["all", "first", "middle", "tail", "empty", "negative", "past-the-end"],
    )
    def test_row_ranges_read_the_same_rows_as_the_cube(self, tmp_path, shards, rows):
        (block,) = self._blocks(tmp_path / "c.store", shards)
        for handle, cube in self._handles(block):
            got = handle[rows]
            assert got.shape == cube[rows].shape
            np.testing.assert_array_equal(got, cube[rows])

    def test_strided_reads_rejected(self, tmp_path, shards):
        (block,) = self._blocks(tmp_path / "c.store", shards)
        handle, _ = self._handles(block)[0]
        with pytest.raises(ValueError, match="contiguous"):
            handle[::2]

    def test_reads_are_fresh_writable_float64_arrays(self, tmp_path, shards):
        (block,) = self._blocks(tmp_path / "c.store", shards)
        handle, cube = self._handles(block)[1]
        first = handle[:]
        assert first.dtype == np.float64
        assert not isinstance(first, np.memmap)
        assert first.flags.writeable
        first.sort(axis=1)
        first[...] = -1.0
        np.testing.assert_array_equal(handle[:], cube)

    def test_reads_survive_unlinking_the_store(self, tmp_path, shards):
        path = tmp_path / "c.store"
        (block,) = self._blocks(path, shards)
        handles = self._handles(block)
        expected = [np.array(cube) for _, cube in handles]
        del block
        shutil.rmtree(path)
        assert not path.exists()
        for (handle, _), want in zip(handles, expected):
            np.testing.assert_array_equal(handle[:], want)

    def test_handles_outlive_the_mapped_views(self, tmp_path, shards):
        (block,) = self._blocks(tmp_path / "c.store", shards)
        expected = [np.array(cube) for cube in block.cube]
        handles = [handle for handle, _ in self._handles(block)]
        del block
        gc.collect()
        for handle, want in zip(handles, expected):
            np.testing.assert_array_equal(handle[:], want)

    def test_open_group_file_cannot_be_pickled(self, tmp_path, shards):
        (block,) = self._blocks(tmp_path / "c.store", shards)
        handle, _ = self._handles(block)[0]
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(handle)

    def test_truncated_group_file_raises(self, tmp_path, shards):
        path = tmp_path / "c.store"
        (block,) = self._blocks(path, shards)
        handle, _ = self._handles(block)[-1]
        del block
        gc.collect()
        (group_file,) = [p for p in path.iterdir() if p.name != MANIFEST_NAME]
        os.truncate(group_file, 0)
        with pytest.raises(ValueError, match="ended early"):
            handle[:]

    def test_group_block_maps_the_cube(self, tmp_path, shards):
        path = tmp_path / "c.store"
        store = ShardStore.create(path)
        _extend(store, shards)
        store.finalize()
        (group,) = ShardStore.open(path)._read_manifest()["groups"]
        block = ShardStore.open(path).group_block(group)
        assert isinstance(block.cube, np.memmap)
        assert block.cube.shape == (len(shards), 4, 8)
        columns = block.columns
        assert set(columns) == set(shards[0].columns)
        for name, values in columns.items():
            np.testing.assert_array_equal(
                values, np.concatenate([shard.columns[name] for shard in shards])
            )
        assert [sl.sort_key for sl in block.slices] == [
            shard.slices[0].sort_key for shard in shards
        ]


class TestOpenFileLimit:
    """A store-backed analysis holds one open file per group until it
    finalizes, so a store scan checks the open-file limit before the fold."""

    CONFIG = CampaignConfig(
        application="minife",
        trials=16,
        processes=2,
        iterations=4,
        threads=8,
        seed=5,
        backend="campaign",
    )

    @pytest.fixture
    def store(self, tmp_path):
        path = tmp_path / "c.store"
        store = ShardStore.create(path, spill_threshold_bytes=1)
        _extend(store, shards_of(CampaignSession(self.CONFIG).stream()))
        store.finalize()
        return ShardStore.open(path)

    @staticmethod
    @contextlib.contextmanager
    def _spare_descriptors(count):
        """Lower the soft open-file limit to ``count`` above those in use."""
        resource = pytest.importorskip("resource")
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        in_use = len(os.listdir("/dev/fd"))
        resource.setrlimit(resource.RLIMIT_NOFILE, (in_use + count, hard))
        try:
            yield
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))

    def _analyze(self, store):
        context = AnalysisContext.from_config(
            self.CONFIG, metadata=CampaignTensorBackend().metadata(self.CONFIG)
        )
        results = run_columnar_analyses(store.iter_column_blocks(), "all", context)
        return {name: pickle.dumps(results[name]) for name in results}

    def test_more_groups_than_the_limit_fail_before_the_fold(self, store):
        assert store.n_groups == 32
        with self._spare_descriptors(store.n_groups // 2):
            with pytest.raises(OSError, match="open-file limit") as raised:
                self._analyze(store)
        assert raised.value.errno == errno.EMFILE
        assert "--spill-mb" in str(raised.value)

    def test_a_limit_the_check_accepts_covers_the_whole_fold(self, store):
        expected = self._analyze(store)
        # one descriptor per group plus two groups' mappings (the group
        # file and its cube each): exactly what the check asks for
        with self._spare_descriptors(store.n_groups + 2 * 2):
            assert self._analyze(store) == expected
        with self._spare_descriptors(store.n_groups + 2 * 2 - 1):
            with pytest.raises(OSError, match="open-file limit"):
                self._analyze(store)
