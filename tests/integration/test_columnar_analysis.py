"""Bit-identity matrix of the columnar analysis fast path.

Every producer of column blocks must be indistinguishable from folding
the campaign's shards one at a time: bit-identical products for any
``chunk_shards``, any worker count, and every producer (fused campaign
execution, in-memory results, out-of-core store groups, and a merged
dataset that needs re-slicing).
"""

import pickle
import shutil

import numpy as np
import pytest

from repro.analysis import (
    AnalysisContext,
    ColumnarAnalyzer,
    resolve_analyses,
    run_campaign_analyses,
    run_columnar_analyses,
)
from repro.analysis.engine import _dataset_block, _reduce_partials, analyze_dataset
from repro.core.aggregation import canonical_block
from repro.experiments.backends import CampaignTensorBackend
from repro.experiments.config import CampaignConfig
from repro.experiments.executor import ShardExecutor
from repro.experiments.session import CampaignResult, CampaignSession
from repro.io.shard_store import ShardStore, StoredRows
from shards import dataset_shards, joined_columns, shards_of

CONFIG = CampaignConfig(
    application="minife",
    trials=2,
    processes=2,
    iterations=10,
    threads=24,
    seed=5,
    backend="campaign",
)

def _products(results):
    """Canonical pickled product bytes per pass — byte-equality is the bar.

    One pickle round-trip first: it normalises object-identity topology
    (e.g. enum ``.value`` strings shared with dict keys in-process but not
    after crossing a worker boundary) without touching a single value, so
    the comparison stays bit-strict on every array byte and float while
    ignoring memo-reference layout.
    """
    return {
        name: pickle.dumps(pickle.loads(pickle.dumps(results[name])))
        for name in results
    }


@pytest.fixture(scope="module")
def reference():
    """Per-shard streaming products (one-slice blocks) and their context."""
    metadata = CampaignTensorBackend().metadata(CONFIG)
    context = AnalysisContext.from_config(CONFIG, metadata=metadata)
    shards = shards_of(CampaignSession(CONFIG).stream())
    results = run_columnar_analyses(shards, "all", context)
    return _products(results), context


class TestFusedCampaignMatrix:
    @pytest.mark.parametrize("chunk_shards", [1, 3, 8])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_per_shard_path(self, reference, workers, chunk_shards):
        ref, _ = reference
        backend = CampaignTensorBackend(chunk_shards=chunk_shards)
        results = run_campaign_analyses(
            backend,
            CONFIG.parallel(workers),
            "all",
            executor=ShardExecutor(mode="process"),
        )
        assert _products(results) == ref


class TestStoreBackedBlocks:
    def test_store_groups_match_per_shard_path(self, tmp_path, reference):
        ref, context = reference
        store = ShardStore.create(tmp_path / "c.store", spill_threshold_bytes=4096)
        for shard in shards_of(CampaignSession(CONFIG).stream()):
            store.append_block(shard)
        store.finalize()
        reopened = ShardStore.open(tmp_path / "c.store")
        assert reopened.n_groups > 1  # the reduction really crosses groups
        results = run_columnar_analyses(reopened.iter_column_blocks(), "all", context)
        assert _products(results) == ref

    def test_store_unlinked_between_fold_and_finalize(self, tmp_path, reference):
        """Store-backed partials hold the group files open, not their
        mapped pages or paths: deleting the store after the fold leaves the
        finalized products equal to the in-memory ones."""
        ref, context = reference
        path = tmp_path / "c.store"
        store = ShardStore.create(path, spill_threshold_bytes=4096)
        for shard in shards_of(CampaignSession(CONFIG).stream()):
            store.append_block(shard)
        store.finalize()
        reopened = ShardStore.open(path)
        held = ColumnarAnalyzer(resolve_analyses(["percentiles"]), context)(
            next(reopened.iter_column_blocks())
        )
        assert all(
            isinstance(rows, StoredRows)
            for partial in held
            for _, (_, rows) in partial["percentiles"]
        )

        def blocks_then_unlink():
            yield from reopened.iter_column_blocks()
            shutil.rmtree(path)

        results = run_columnar_analyses(blocks_then_unlink(), "all", context)
        assert not path.exists()
        assert _products(results) == ref

    def test_group_blocks_are_mmap_views(self, tmp_path):
        store = ShardStore.create(tmp_path / "c.store")
        for shard in shards_of(CampaignSession(CONFIG).stream()):
            store.append_block(shard)
        store.finalize()
        blocks = list(ShardStore.open(tmp_path / "c.store").iter_column_blocks())
        assert blocks
        for block in blocks:
            slices = list(block.slices)
            assert slices == sorted(slices, key=lambda sl: sl.sort_key)
            assert slices[-1].stop == block.cube.size
            assert isinstance(block.cube, np.memmap)


class TestInMemoryBlocks:
    def test_session_result_blocks_match_per_shard_path(self, reference):
        ref, context = reference
        result = CampaignSession(CONFIG).run()
        results = run_columnar_analyses(result.iter_column_blocks(), "all", context)
        assert _products(results) == ref

    def test_dataset_block_matches_shard_fold(self):
        """Dataset-derived shards (flat columns, not block-shaped) are
        sorted into (trial, process) slices and still match exactly."""
        dataset = CampaignSession(CONFIG).run().dataset
        shards = dataset_shards(dataset)
        context = AnalysisContext.from_dataset(dataset)
        ref = _products(run_columnar_analyses(shards, "all", context))
        block = _dataset_block(dataset)
        got = _products(run_columnar_analyses([block], "all", context))
        assert got == ref
        assert _products(analyze_dataset(dataset)) == ref

    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_shards", [1, 3, 8])
    def test_chunk_blocks_match_per_shard_path(
        self, reference, chunk_shards, workers, mode
    ):
        ref, context = reference
        backend = CampaignTensorBackend(chunk_shards=chunk_shards)
        config = CONFIG.parallel(workers)
        blocks = ShardExecutor(mode=mode).iter_blocks(backend, config)
        result = CampaignResult(config, blocks=blocks)
        results = run_columnar_analyses(result.iter_column_blocks(), "all", context)
        assert _products(results) == ref

    def test_blocks_are_the_campaign_chunks(self):
        backend = CampaignTensorBackend(chunk_shards=3)
        result = CampaignResult(
            CONFIG, blocks=ShardExecutor().iter_blocks(backend, CONFIG)
        )
        blocks = list(result.iter_column_blocks())
        assert [len(block.slices) for block in blocks] == [3, 1]
        for block in blocks:
            assert block.cube.shape == (
                len(block.slices), CONFIG.iterations, CONFIG.threads
            )
        assert [(sl.trial, sl.process) for b in blocks for sl in b.slices] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shards_are_views_of_the_blocks(self, workers):
        backend = CampaignTensorBackend(chunk_shards=3)
        config = CONFIG.parallel(workers)
        result = CampaignResult(
            config, blocks=ShardExecutor().iter_blocks(backend, config)
        )
        blocks = list(result.iter_column_blocks())
        assert len(blocks) == 2
        owners = [block for block in blocks for _ in block.slices]
        shards = shards_of(blocks)
        assert len(shards) == len(owners)
        for shard, block in zip(shards, owners):
            assert np.shares_memory(shard.cube, block.cube)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_vectorized_yields_one_slice_blocks(self, workers):
        config = CONFIG.with_backend("vectorized").parallel(workers)
        result = CampaignSession(config, executor_mode="thread").run()
        blocks = list(result.iter_column_blocks())
        assert len(blocks) == CONFIG.trials * CONFIG.processes
        assert all(len(block.slices) == 1 for block in blocks)

    def test_analyze_dataset_folds_one_block(self, monkeypatch):
        from repro.analysis import engine

        folded = []
        fold = engine.run_columnar_analyses

        def recording_fold(blocks, *args, **kwargs):
            folded.extend(blocks)
            return fold(folded, *args, **kwargs)

        monkeypatch.setattr(engine, "run_columnar_analyses", recording_fold)
        dataset = CampaignSession(CONFIG).run().dataset
        engine.analyze_dataset(dataset)
        assert len(folded) == 1
        (block,) = folded
        assert len(block.slices) == CONFIG.trials * CONFIG.processes
        assert block.cube.size == dataset.n_samples


class TestShardOrderInvariance:
    def test_exact_columnar_partials_merge_order_free(self, reference):
        """Per-shard columnar partials reduced in reverse shard order
        finalize to the same report (the segment keys carry the serial
        order, so merge order cannot matter)."""
        ref, context = reference
        columns, slices = joined_columns(shards_of(CampaignSession(CONFIG).stream()))
        passes = resolve_analyses("all")
        mapper = ColumnarAnalyzer(passes, context)
        # partials are mutated by the reduction — map once per direction
        block = canonical_block(columns, slices)
        forward = _reduce_partials(passes, iter(mapper(block)), context)
        backward = _reduce_partials(passes, reversed(mapper(block)), context)
        assert _products(forward) == ref
        assert forward.report().as_dict() == backward.report().as_dict()
        np.testing.assert_array_equal(
            forward["percentiles"].values, backward["percentiles"].values
        )
