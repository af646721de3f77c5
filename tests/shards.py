"""Datasets cut into campaign shards for the tests: each shard is the
one-slice :class:`~repro.core.aggregation.ColumnBlock` of one
(trial, process), the unit every analysis pass and the shard store take.
"""

import numpy as np

from repro.core.aggregation import ColumnBlock, ShardSlice, canonical_block
from repro.core.timing import TimingDataset


def dataset_shard(dataset: TimingDataset, trial: int, process: int) -> ColumnBlock:
    """All of ``dataset``'s rows (one (trial, process), any iterations) as
    a one-slice block."""
    columns = {name: dataset.column(name) for name in dataset.columns}
    return canonical_block(columns, [ShardSlice(int(trial), int(process), 0, len(dataset))])


def dataset_shards(dataset: TimingDataset) -> list:
    """The dataset's (trial, process) shards, in serial order."""
    return [
        dataset_shard(dataset.select(trial=int(t), process=int(p)), t, p)
        for t in dataset.trials
        for p in dataset.processes
    ]


def shards_of(blocks) -> list:
    """Every slice of ``blocks`` as a one-slice block, in block order."""
    return [block.rows(sl) for block in blocks for sl in block.slices]


def joined_columns(shards):
    """The shards' flat columns laid end to end, and the slice addressing
    each shard's rows in them (``canonical_block``'s input)."""
    parts = [shard.columns for shard in shards]
    columns = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    slices, start = [], 0
    for shard in shards:
        slices.append(shard.slices[0]._replace(start=start, stop=start + shard.n_samples))
        start += shard.n_samples
    return columns, slices
