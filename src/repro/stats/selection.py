"""Exact order statistics of data read in pieces, in bounded memory.

:func:`select_sorted` returns the values at given ranks of the sorted
concatenation of several row blocks — ``np.sort(samples)[ranks]`` — while
holding one chunk of samples, a bounded table of bucket counters and the
small buckets that contain the wanted ranks, never the samples
themselves.  It is multi-pass selection in bounded storage (Munro &
Paterson, "Selection and sorting with limited storage", TCS 1980) as a
radix select over the IEEE-754 bit patterns:

1. every sample gets a ``uint64`` key that sorts like its value
   (:func:`order_keys`): the bit pattern with the sign bit flipped, all bits
   flipped for negative values, and NaN last, where ``np.sort`` puts it;
2. a first pass counts the keys by their top 16 bits;
3. each further pass splits every bucket that holds a wanted rank and is
   still large by the next bits of its keys, more bits for larger buckets,
   into at most :data:`COUNTERS` counters for all of them together;
4. once every bucket that holds a wanted rank is small, or all of them
   together are (:data:`BUCKET_SAMPLES` per wanted rank), a last pass
   reads back only those buckets' keys and sorts them.  A bucket refined down to a single key needs no read at all, so
   heavy ties cost no memory.

A campaign's application row (768 000 samples at paper scale) takes three
passes: the top 16 bits, one split, the read back.

The selected values equal ``np.sort``'s bit for bit, ties included,
except where ``np.sort`` itself leaves the order open: it orders ``-0.0``
and ``+0.0`` as equal, in no fixed order, while the keys put every
``-0.0`` first; and a NaN with its sign bit set selects as the canonical
NaN.  A campaign's compute times are non-negative, so neither case
arises in a campaign.

The normality battery tests a group above Shapiro–Wilk's n = 5000 on a
deterministic stratified subsample: :func:`stratified_ranks` are its
evenly strided ranks, and :func:`stratified_subsample` takes them from
rows held in memory.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence

import numpy as np

#: samples keyed at once
CHUNK_SAMPLES = 1 << 14

#: counters a refining pass keeps, over every bucket it splits
COUNTERS = 1 << 16

#: the buckets holding wanted ranks are read back and sorted once they
#: have at most this many samples per wanted rank: each bucket, or all of
#: them together
BUCKET_SAMPLES = 64

_SIGN = np.uint64(1 << 63)
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)
_NAN_KEY = np.float64(np.nan).view(np.uint64) ^ _SIGN
_ROOT_DIGITS = 16


def order_keys(values: np.ndarray) -> np.ndarray:
    """``uint64`` keys of a 1-D float64 array that sort like its values
    (``np.sort`` order: NaN last)."""
    bits = values.view(np.int64)
    if bits.min() >= 0:
        # no sign bit set: the pattern orders itself
        return bits.view(np.uint64) ^ _SIGN
    keys = (bits ^ ((bits >> 63) & _MAGNITUDE)).view(np.uint64) ^ _SIGN
    keys[np.isnan(values)] = _NAN_KEY
    return keys


def key_values(keys: np.ndarray) -> np.ndarray:
    """The float64 values of :func:`order_keys` keys (its inverse)."""
    bits = (np.asarray(keys, dtype=np.uint64) ^ _SIGN).view(np.int64)
    return (bits ^ ((bits >> 63) & _MAGNITUDE)).view(np.float64)


def _chunk_keys(parts: Sequence) -> Iterator[np.ndarray]:
    """The keys of every part's samples, in part order, whole rows at a
    time and at most :data:`CHUNK_SAMPLES` per chunk (or one row)."""
    for rows in parts:
        step = max(1, CHUNK_SAMPLES // max(math.prod(rows.shape[1:]), 1))
        for start in range(0, rows.shape[0], step):
            values = np.ascontiguousarray(rows[start : start + step], dtype=np.float64)
            if values.size:
                yield order_keys(values.reshape(-1))


class _Level:
    """One refinement of the buckets.  A key in bucket ``p`` of the previous
    level lands in bucket ``(key >> shift[p]) + offset[p]`` of this one; a
    bucket that is not refined sends its keys to two trailing ids that
    count nothing (``shift`` 63, so the digit is 0 or 1)."""

    def __init__(self, shift: np.ndarray, offset: np.ndarray) -> None:
        self.shift = shift
        self.offset = offset

    def ids(self, parents: np.ndarray, keys: np.ndarray) -> np.ndarray:
        return (keys >> self.shift[parents]).view(np.int64) + self.offset[parents]


def _bucket_ids(levels: List[_Level], keys: np.ndarray) -> List[np.ndarray]:
    """Each level's bucket ids of ``keys``: the root's, then each refinement's."""
    ids = [(keys >> np.uint64(64 - _ROOT_DIGITS)).view(np.int64)]
    for level in levels:
        ids.append(level.ids(ids[-1], keys))
    return ids


def _split_digits(sizes: np.ndarray, lows: np.ndarray) -> np.ndarray:
    """Bits to split each bucket by: enough for a quarter of
    :data:`BUCKET_SAMPLES` per part, at most ``lows`` (the bits left) and,
    over all of them, at most :data:`COUNTERS` parts."""
    target = max(1, BUCKET_SAMPLES // 4)
    wanted = np.ceil(np.log2(np.maximum(sizes / target, 2.0))).astype(np.int64)
    digits = np.clip(wanted, 1, lows)
    while (np.int64(1) << digits).sum() > COUNTERS and digits.max() > 1:
        digits = np.maximum(digits - 1, 1)
    return digits


def select_sorted(parts: Sequence, ranks: np.ndarray) -> np.ndarray:
    """``np.sort(samples)[ranks]`` of the samples of ``parts`` in bounded
    memory (see the module docstring for ``±0.0`` and NaN).

    ``parts`` are arrays, or handles that read like one
    (:class:`~repro.io.shard_store.StoredRows`: a ``shape`` and
    ``rows[start:stop]``); their samples are every element, in any order.
    ``ranks`` are ascending positions in the sorted samples.  Each pass
    reads every part again, :data:`CHUNK_SAMPLES` samples at a time.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    selected = np.empty(len(ranks), dtype=np.uint64)
    if not len(ranks):
        return key_values(selected)
    levels: List[_Level] = []
    # the counted buckets come in blocks, one per refined parent: the
    # block's first id, the parent's key prefix, the key bits below it,
    # the bits its block splits off and the rank of its first sample.  The
    # root is one parent: every key, split by its top bits.
    base = np.zeros(1, dtype=np.int64)
    prefix = np.zeros(1, dtype=np.uint64)
    low = np.full(1, 64, dtype=np.int64)
    digits = np.full(1, _ROOT_DIGITS, dtype=np.int64)
    first = np.zeros(1, dtype=np.int64)
    size = 1 << _ROOT_DIGITS
    # per level, the buckets to read back in the last pass
    takes: List[np.ndarray] = []
    pending = np.arange(len(ranks))
    final_starts: List[np.ndarray] = []
    final_sizes: List[np.ndarray] = []
    gathered: List[np.ndarray] = []
    pooled = 0
    while len(pending):
        counts = np.zeros(size + 2, dtype=np.int64)
        for keys in _chunk_keys(parts):
            counts += np.bincount(_bucket_ids(levels, keys)[-1], minlength=size + 2)
        takes.append(np.zeros(size + 2, dtype=bool))
        counts = counts[:size]
        # a bucket's first rank: its parent's, plus the samples of the
        # parent's buckets before it
        starts = np.cumsum(counts) - counts
        starts += np.repeat(first - starts[base], np.int64(1) << digits)
        holding = np.searchsorted(starts, ranks[pending], side="right") - 1
        buckets, where = np.unique(holding, return_inverse=True)
        sizes = counts[buckets]
        # each holding bucket's key prefix and the key bits below it
        parent = np.searchsorted(base, buckets, side="right") - 1
        bits = digits[parent]
        bucket_low = low[parent] - bits
        bucket_prefix = (prefix[parent] << bits.astype(np.uint64)) | (
            buckets - base[parent]
        ).astype(np.uint64)
        # a bucket of one key gives its ranks without a read back
        exact = bucket_low == 0
        single = exact[where]
        selected[pending[single]] = bucket_prefix[where[single]]
        if pooled + sizes[~exact].sum() <= BUCKET_SAMPLES * len(ranks):
            big = np.zeros(len(buckets), dtype=bool)
        else:
            big = (sizes > BUCKET_SAMPLES) & ~exact
        final = ~big & ~exact
        takes[-1][buckets[final]] = True
        final_starts.append(starts[buckets[final]])
        final_sizes.append(sizes[final])
        pooled += int(sizes[final].sum())
        gathered.append(pending[final[where]])
        pending = pending[big[where]]
        if not len(pending):
            break
        # split the large buckets, each by as many bits as its size asks
        grow = buckets[big]
        digits = _split_digits(sizes[big], bucket_low[big])
        widths = np.int64(1) << digits
        base = np.cumsum(widths) - widths
        size = int(widths.sum())
        prefix, low, first = bucket_prefix[big], bucket_low[big], starts[grow]
        shift = np.full(len(counts) + 2, 63, dtype=np.uint8)
        offset = np.full(len(counts) + 2, size, dtype=np.int64)
        shift[grow] = low - digits
        offset[grow] = base - (prefix << digits.astype(np.uint64)).astype(np.int64)
        levels.append(_Level(shift, offset))
    del counts, starts
    if pooled:
        # the last pass: read back the final buckets' keys, sorted
        reading = [(n, take) for n, take in enumerate(takes) if take.any()]
        pool = np.empty(pooled, dtype=np.uint64)
        filled = 0
        for keys in _chunk_keys(parts):
            ids = _bucket_ids(levels, keys)
            keep = np.zeros(len(keys), dtype=bool)
            for n, take in reading:
                keep |= take[ids[n]]
            kept = keys[keep]
            pool[filled : filled + len(kept)] = kept
            filled += len(kept)
        pool.sort()
        starts = np.concatenate(final_starts)
        sizes = np.concatenate(final_sizes)
        order = np.argsort(starts)
        starts, sizes = starts[order], sizes[order]
        offsets = np.cumsum(sizes) - sizes
        index = np.concatenate(gathered)
        wanted = ranks[index]
        at = np.searchsorted(starts, wanted, side="right") - 1
        selected[index] = pool[offsets[at] + wanted - starts[at]]
    return key_values(selected)


def stratified_ranks(n: int, limit: int) -> np.ndarray:
    """The ``limit`` evenly strided ranks out of ``n`` sorted samples that
    :func:`stratified_subsample` keeps."""
    return np.floor(np.arange(limit) * (n / limit)).astype(np.int64)


def stratified_subsample(values: np.ndarray, limit: int) -> np.ndarray:
    """Deterministic stratified subsample along the last axis.

    Sorts, then takes ``limit`` evenly strided order statistics — therefore
    independent of the input order, which is what makes the application-level
    normality verdict identical between the in-memory path (dense row order)
    and the shard-streaming path (shards concatenated in merge order).
    """
    n = values.shape[-1]
    if n <= limit:
        return values
    return np.sort(values, axis=-1)[..., stratified_ranks(n, limit)]
