"""Property tests of the bounded application-row selection (hypothesis).

The normality pass's application row must equal the dense oracle,
``np.sort(row)[stratified_ranks(n, limit)]``, bit for bit, whether its
segments are cube rows or :class:`~repro.io.shard_store.StoredRows`
handles, for ragged segments, heavy ties, values of every binary
exponent, ``±0.0`` and NaN.  The small-counter settings force every
refinement path (deep splits, single-key buckets, rows wider than a
chunk) on small inputs.
"""

import os
import tempfile
from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis import passes
from repro.io.shard_store import StoredRows, _GroupFile
from repro.stats import selection
from repro.stats.selection import stratified_ranks

#: a few repeated values (heavy ties, both zeros, NaN of either sign) or
#: any finite or infinite double, subnormals included
values = st.one_of(
    st.sampled_from([0.0, -0.0, 2.5e-3, 2.5e-3, 1.0, -7.0, np.nan, -np.nan]),
    st.floats(allow_nan=False, width=64),
)


@st.composite
def segments(draw):
    """Ragged 2-D segments: each its own (rows, width) shape."""
    shapes = draw(
        st.lists(st.tuples(st.integers(0, 6), st.integers(1, 9)), min_size=1, max_size=6)
    )
    return [draw(hnp.arrays(np.float64, shape, elements=values)) for shape in shapes]


def _stored(parts, stack):
    """The parts written one after another to a file, as StoredRows handles."""
    handle, path = tempfile.mkstemp()
    with os.fdopen(handle, "wb") as out:
        for part in parts:
            out.write(np.ascontiguousarray(part).tobytes())
    stack.callback(os.unlink, path)
    group = _GroupFile(os.open(path, os.O_RDONLY))
    offsets = np.cumsum([0] + [part.nbytes for part in parts])
    return [StoredRows(group, int(at), part.shape) for at, part in zip(offsets, parts)]


def _assert_same_selection(got, want):
    """Bit for bit, except where ``np.sort`` fixes no order: a zero only by
    value (it orders ``-0.0`` and ``+0.0`` as equal) and a NaN only as NaN
    (a sign-bit NaN selects as the canonical one)."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    exact = (want != 0) & ~np.isnan(want)
    np.testing.assert_array_equal(got.view(np.uint64)[exact], want.view(np.uint64)[exact])
    np.testing.assert_array_equal(got[want == 0], want[want == 0])
    canonical = np.isnan(want) & ~np.signbit(want)
    np.testing.assert_array_equal(
        got.view(np.uint64)[canonical], want.view(np.uint64)[canonical]
    )


@given(
    segments(),
    st.integers(1, 120),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_application_row_is_the_sorted_rows_strided_ranks(parts, limit, stored, tight):
    row = np.concatenate([part.reshape(-1) for part in parts])
    n = len(row)
    with ExitStack() as stack:
        if tight:
            # a few counters, tiny buckets and chunks: many refinement levels
            stack.enter_context(mock.patch.object(selection, "COUNTERS", 4))
            stack.enter_context(mock.patch.object(selection, "BUCKET_SAMPLES", 1))
            stack.enter_context(mock.patch.object(selection, "CHUNK_SAMPLES", 5))
        rows = _stored(parts, stack) if stored else parts
        # the pass's segments: keyed by slice, listed out of order
        keyed = [((s, 0), (np.arange(r.shape[0]), r)) for s, r in enumerate(rows)][::-1]
        got = passes._application_row(keyed, limit)
    if n <= limit:
        want = row
    else:
        want = np.sort(row)[stratified_ranks(n, limit)]
    _assert_same_selection(got, want)


@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 400),
        elements=st.floats(-1e300, 1e300, allow_nan=False),
    ),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_any_ascending_ranks_select_the_sorted_values(samples, data):
    """Any ascending ranks, repeats included, of samples split anywhere."""
    ranks = np.sort(
        data.draw(
            hnp.arrays(
                np.int64, st.integers(0, 60), elements=st.integers(0, len(samples) - 1)
            )
        )
    )
    cuts = np.sort(data.draw(st.lists(st.integers(0, len(samples)), max_size=4)))
    with mock.patch.object(selection, "COUNTERS", 8), mock.patch.object(
        selection, "BUCKET_SAMPLES", 2
    ):
        got = selection.select_sorted(np.split(samples, cuts), ranks)
    _assert_same_selection(got, np.sort(samples)[ranks])


@given(hnp.arrays(np.float64, st.integers(1, 200), elements=values))
@settings(max_examples=100, deadline=None)
def test_keys_sort_like_the_values_and_invert(samples):
    keys = selection.order_keys(samples)
    by_key = selection.key_values(np.sort(keys))
    _assert_same_selection(by_key, np.sort(samples))
    back = selection.key_values(keys)
    finite = ~np.isnan(samples)
    np.testing.assert_array_equal(back.view(np.uint64)[finite], samples.view(np.uint64)[finite])
    assert np.isnan(back[~finite]).all()


def test_inputs_either_side_of_the_read_back_budget_select_exactly():
    """At ``BUCKET_SAMPLES`` samples per rank (the read-back budget) and
    one sample either side of it, the selection is ``np.sort``'s values
    bit for bit."""
    rng = np.random.default_rng(38)
    n_ranks = 50
    budget = selection.BUCKET_SAMPLES * n_ranks
    for n in (budget - 1, budget, budget + 1):
        # ties, both zeros and a wide spread of exponents
        spread = n - n // 4
        samples = np.concatenate(
            [
                rng.choice([0.0, -0.0, 2.5e-3, 1.0], n // 4),
                rng.lognormal(-8.0, 4.0, spread) * rng.choice([-1.0, 1.0], spread),
            ]
        )
        rng.shuffle(samples)
        ranks = stratified_ranks(n, n_ranks)
        parts = np.array_split(samples.reshape(-1, 1), 3)
        got = selection.select_sorted(parts, ranks)
        _assert_same_selection(got, np.sort(samples)[ranks])
