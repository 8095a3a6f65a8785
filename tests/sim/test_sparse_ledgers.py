"""The sparse ledger store's one sorted-row merge against a dense oracle.

``SparseLedgers.add_compact`` (with ``bulk_insert`` for rows that have
no entries yet) is the only place in the simulator that merges sorted
giver columns into a row: the ledger store credits through it, and so
does the deferred-feedback buffer (no forgetting) before ``drain``
hands its rows over at a flush.  These tests drive it directly with
random whole-byte batches and compare every cell with a dense matrix
updated the obvious way.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.sparse import SparseLedgers

N = 23


#: Engine credits are whole bytes.
_credit = st.integers(min_value=0, max_value=10**9)


def _values(draw, size):
    return np.array(draw(st.lists(_credit, min_size=size, max_size=size)), dtype=np.int64)


def _columns(draw):
    """A sorted-unique int64 column batch."""
    cols = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=8, unique=True))
    return np.array(sorted(cols), dtype=np.int64)


def _assert_bitwise(store, dense):
    assert store.materialize().tobytes() == dense.tobytes()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_add_compact_matches_dense_add_at(data):
    """Random adds (repeated rows and columns: hits, misses, partial
    overlaps), cold-row bulk inserts and interleaved flushes leave every
    cell equal to a dense matrix updated with ``np.add.at`` and an eager
    per-flush floor decay."""
    rows = data.draw(st.integers(1, 6))
    initial = data.draw(st.sampled_from([1e-3, 0.5, 7.0]))
    forgetting = np.array(
        data.draw(
            st.lists(st.sampled_from([1.0, 0.9, 0.5]), min_size=rows, max_size=rows)
        )
    )
    store = SparseLedgers(N, initial, forgetting, rows=rows)
    dense = np.zeros((rows, N), dtype=np.int64)
    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(["add", "add", "bulk", "epoch", "read"]))
        if op == "epoch":
            store.advance_epoch()
            dense = (dense * forgetting[:, None]).astype(np.int64)
        elif op == "add":
            i = data.draw(st.integers(0, rows - 1))
            cols = _columns(data.draw)
            vals = _values(data.draw, cols.size)
            store.add_compact(i, cols, vals)
            np.add.at(dense[i], cols, vals)
        elif op == "bulk":
            cold = np.flatnonzero(store.nnz == 0)
            cols = _columns(data.draw)
            vals = _values(data.draw, cold.size * cols.size).reshape(-1, cols.size)
            store.bulk_insert(cold, cols, vals)
            for k, i in enumerate(cold.tolist()):
                np.add.at(dense[i], cols, vals[k])
        else:
            # A read catches the row up; the others stay lazily behind.
            i = data.draw(st.integers(0, rows - 1))
            probe = np.arange(N, dtype=np.int64)
            assert store.row_at(i, probe).tobytes() == dense[i].tobytes()
    _assert_bitwise(store, dense)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_buffer_drain_hands_over_exact_sums(data):
    """The deferred-feedback shape: a no-forgetting store accumulates batches through the same merge, and ``drain``
    returns each touched row's exact sums in row order and empties
    the store."""
    rows = data.draw(st.integers(1, 6))
    buffer = SparseLedgers(N, 0.0, np.ones(rows), rows=rows)
    dense = np.zeros((rows, N), dtype=np.int64)
    for _ in range(data.draw(st.integers(1, 4))):
        for _ in range(data.draw(st.integers(0, 12))):
            i = data.draw(st.integers(0, rows - 1))
            cols = _columns(data.draw)
            vals = _values(data.draw, cols.size)
            buffer.add_compact(i, cols, vals)
            np.add.at(dense[i], cols, vals)
        _assert_bitwise(buffer, dense)
        drained = buffer.drain()
        assert [i for i, _, _ in drained] == sorted({i for i, _, _ in drained})
        got = np.zeros((rows, N), dtype=np.int64)
        for i, idx, val in drained:
            assert np.all(np.diff(idx) > 0)
            got[i, idx] = val
        assert got.tobytes() == dense.tobytes()
        assert buffer.entries == 0 and not buffer.nnz.any()
        dense[:] = 0
