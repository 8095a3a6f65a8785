"""Sparse per-peer credit ledgers for the large-``n`` slot engine.

The batched engine owns a dense ``(n, n)`` credit matrix — 8 TB of
float64 at ``n = 10^6``.  Real interaction graphs are sparse: a peer
accumulates credit only with the partners it has actually exchanged
slots with, so :class:`SparseLedgers` stores row ``i`` as

* a **background** scalar — the initial credit, decayed once per
  feedback flush (``background *= forgetting`` is a single vectorised
  multiply; rows with ``forgetting == 1.0`` multiply by exactly 1.0, a
  bitwise no-op) — standing in for every partner the peer has *never*
  interacted with, and
* explicit ``(partner index, credit)`` arrays, sorted by partner, for
  historical partners only.

**Invariant** (the bit-identity contract with the dense engines): an
explicit entry's value equals the dense matrix cell ``C[i][j]`` exactly,
and every non-explicit cell equals ``background[i]`` exactly.

Forgetting decay on explicit entries is applied **lazily** via per-row
epoch stamps: the store counts feedback flushes in :attr:`epoch`, and a
row touched after ``k`` missed flushes catches up by multiplying its
values by ``forgetting`` ``k`` times in sequence — the same ``k``
rounded multiplies the reference ledger performed eagerly, so the bits
agree no matter when the catch-up happens.  Idle rows therefore cost
nothing per slot.

:func:`sparse_pairwise` reproduces numpy's ``pairwise_sum_DOUBLE``
reduction over a dense vector given only its materialised entries.
Zeros are exact no-ops inside numpy's recursion (every partial sum is a
left-to-right chain over a positional subsequence, and ``x + 0.0 == x``
bitwise for the non-negative values the engine sums), so the dense
reduction is computable in ``O(entries)`` — but the *tree shape* depends
on element positions, which is why entries carry their dense positions
instead of being naively compacted.  Inputs must not contain ``-0.0``
(``-0.0 + 0.0`` is ``+0.0``); engine credits and allocations are
non-negative so this never arises in practice.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SparseLedgers", "SparseLedgerView", "sparse_pairwise"]


class SparseLedgers:
    """CSR-style per-peer credit rows with lazy forgetting decay.

    Parameters
    ----------
    n:
        Number of peers (the column span of every row).
    initial:
        Initial credit (the background value of every row).
    forgetting:
        ``(rows,)`` per-row forgetting factors in ``(0, 1]``.
    rows:
        Number of rows this store owns.  Defaults to ``n``; a
        shard-local store (the procs engine) owns a contiguous row
        slice while its columns still span the whole population, so
        row indices are *local* and column/partner indices *global*.

    Alongside the Python-dict row storage, the store maintains flat
    metadata arrays (:attr:`nnz`, :attr:`idx_addr`, :attr:`val_addr`,
    :attr:`stamps`) so the native kernels can reach any row's entry
    arrays from a single pointer-table lookup without per-row Python
    marshalling.  ``nnz[i] == -1`` marks a *dense island* row (slow-path
    peers keep a real dense ledger vector, eagerly decayed).
    """

    def __init__(
        self,
        n: int,
        initial: float,
        forgetting: np.ndarray,
        rows: int | None = None,
    ):
        self.n = int(n)
        self.rows = self.n if rows is None else int(rows)
        self.background = np.full(self.rows, float(initial))
        self.forgetting = np.ascontiguousarray(forgetting, dtype=np.float64)
        #: Feedback flushes seen so far (the decay clock).
        self.epoch = 0
        #: Last epoch each sparse row's explicit values were decayed to.
        self.stamps = np.zeros(self.rows, dtype=np.int64)
        #: Explicit entries per row; -1 flags a dense island row.
        self.nnz = np.zeros(self.rows, dtype=np.int64)
        #: Base addresses of each row's int64 index / float64 value
        #: arrays (0 when the row has none) — the native kernels' view.
        self.idx_addr = np.zeros(self.rows, dtype=np.int64)
        self.val_addr = np.zeros(self.rows, dtype=np.int64)
        self._idx: dict[int, np.ndarray] = {}
        self._val: dict[int, np.ndarray] = {}
        self._dense: dict[int, np.ndarray] = {}
        self._any_forgetting = bool((self.forgetting < 1.0).any())

    # -- row lifecycle -------------------------------------------------

    def dense_row(self, i: int) -> np.ndarray:
        """Allocate a dense island row for a slow-path peer.

        The caller (a :class:`~repro.core.ledger.ContributionLedger`
        constructor) overwrites it with the initial credit; from then on
        the store decays it eagerly at every flush and scatters credit
        into it directly.
        """
        i = int(i)
        row = np.zeros(self.n)
        self._dense[i] = row
        self.nnz[i] = -1
        return row

    def advance_epoch(self) -> None:
        """One feedback flush: decay backgrounds and dense islands now,
        stamp the clock so sparse rows catch up lazily."""
        self.epoch += 1
        if self._any_forgetting:
            # forgetting == 1.0 rows multiply by exactly 1.0 — bitwise
            # no-op.
            self.background *= self.forgetting
            for i, row in self._dense.items():
                f = self.forgetting[i]
                if f < 1.0:
                    row *= f

    def catch_up(self, i: int) -> None:
        """Apply any missed flush decays to row ``i``'s explicit values.

        One in-place multiply per missed flush — the exact rounded
        operations the reference ledger performed at each flush.
        """
        lag = self.epoch - self.stamps[i]
        if lag:
            f = float(self.forgetting[i])
            if f < 1.0:
                val = self._val[i]
                for _ in range(lag):
                    val *= f
            self.stamps[i] = self.epoch

    # -- reads ---------------------------------------------------------

    def row_at(self, i: int, cols: np.ndarray) -> np.ndarray:
        """Row ``i``'s credits at ``cols`` (sorted int64), dense-exact."""
        i = int(i)
        dense = self._dense.get(i)
        if dense is not None:
            return dense[cols]
        out = np.full(cols.size, self.background[i])
        idx = self._idx.get(i)
        if idx is not None:
            self.catch_up(i)
            pos, hit = _locate(idx, cols)
            out[hit] = self._val[i][pos[hit]]
        return out

    def materialize(self) -> np.ndarray:
        """Dense ``(rows, n)`` snapshot (tests / small-n interop only)."""
        out = np.empty((self.rows, self.n))  # repro: allow[sim-dense-alloc]
        out[:] = self.background[:, None]
        for i, idx in self._idx.items():
            self.catch_up(i)
            out[i, idx] = self._val[i]
        for i, row in self._dense.items():
            out[i] = row
        return out

    # -- writes --------------------------------------------------------

    def _publish(self, i: int, idx: np.ndarray, val: np.ndarray) -> None:
        self._idx[i] = idx
        self._val[i] = val
        self.nnz[i] = idx.size
        self.idx_addr[i] = idx.ctypes.data
        self.val_addr[i] = val.ctypes.data

    def add_compact(self, i: int, add_idx: np.ndarray, add_val: np.ndarray) -> None:
        """``row[i][add_idx] += add_val`` with entry creation.

        ``add_idx`` must be sorted unique int64.  New entries start from
        the *current* (post-decay) background — exactly the dense cell's
        value at the moment of the add — so ``background + v`` is the
        same single rounded add the dense engine performed.
        """
        i = int(i)
        dense = self._dense.get(i)
        if dense is not None:
            dense[add_idx] += add_val
            return
        idx = self._idx.get(i)
        if idx is None:
            self.stamps[i] = self.epoch
            self._publish(i, add_idx.copy(), self.background[i] + add_val)
            return
        self.catch_up(i)
        val = self._val[i]
        pos, hit = _locate(idx, add_idx)
        if hit.all():
            val[pos] += add_val
            return
        miss = ~hit
        val[pos[hit]] += add_val[hit]
        new_idx = np.concatenate([idx, add_idx[miss]])
        new_val = np.concatenate([val, self.background[i] + add_val[miss]])
        order = np.argsort(new_idx, kind="stable")
        self._publish(i, np.ascontiguousarray(new_idx[order]),
                      np.ascontiguousarray(new_val[order]))

    def bulk_insert(
        self, rows: np.ndarray, add_idx: np.ndarray, add_val: np.ndarray
    ) -> None:
        """Vectorised first-write: ``add_compact(rows[m], add_idx,
        add_val[m])`` for rows with **no explicit entries yet**.

        The cold-start scatter (a fresh cohort of receivers meeting the
        active givers) dominates large-n slots when done row by row;
        this path computes every row's entry values in one vectorised
        ``background + add`` (element-wise the identical single rounded
        add), publishes the kernel pointer tables with one arithmetic
        sweep, and shares a single sorted index array across the batch
        (index arrays are never mutated in place, so sharing is safe —
        each row's *values* get their own slice of the 2D block).

        Callers must guarantee ``nnz[rows] == 0`` for every row.
        """
        if not rows.size:
            return
        k = rows.size
        nact = add_idx.size
        idx = np.ascontiguousarray(add_idx, dtype=np.int64)
        vals = self.background[rows][:, None] + add_val
        self.stamps[rows] = self.epoch
        self.nnz[rows] = nact
        self.idx_addr[rows] = idx.ctypes.data
        self.val_addr[rows] = vals.ctypes.data + np.arange(
            k, dtype=np.int64
        ) * (nact * 8)
        _idx, _val = self._idx, self._val
        for m, i in enumerate(rows.tolist()):
            _idx[i] = idx
            _val[i] = vals[m]

    def drain(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Remove every explicit row and return ``(row, idx, val)``
        triples in row order.

        The deferred-feedback buffer (zero background, no forgetting)
        hands its accumulated rows to the ledger store this way at each
        flush; values are returned as stored, with no catch-up.
        """
        rows = sorted(self._idx)
        out = [(i, self._idx.pop(i), self._val.pop(i)) for i in rows]
        self.nnz[rows] = 0
        self.idx_addr[rows] = 0
        self.val_addr[rows] = 0
        return out

    # -- accounting ----------------------------------------------------

    @property
    def entries(self) -> int:
        """Total explicit entries across all sparse rows."""
        return int(sum(v.size for v in self._val.values()))

    @property
    def nbytes(self) -> int:
        """Resident bytes of the ledger state (the bytes-per-peer metric)."""
        fixed = (
            self.background.nbytes + self.forgetting.nbytes
            + self.stamps.nbytes + self.nnz.nbytes
            + self.idx_addr.nbytes + self.val_addr.nbytes
        )
        rows = sum(a.nbytes for a in self._idx.values())
        rows += sum(a.nbytes for a in self._val.values())
        rows += sum(a.nbytes for a in self._dense.values())
        return int(fixed + rows)


class SparseLedgerView:
    """Read-only :class:`~repro.core.ledger.ContributionLedger` facade
    over one sparse row.

    Fast-path peers under the sparse engine never call their allocator's
    ``allocate`` (the engine evaluates Equation (2) directly from the
    store), but user code may still inspect ``sim.peers[i].ledger``;
    this view answers those reads.  :attr:`credits` materialises the
    full dense row — O(n), fine for inspection, not for hot loops.
    """

    __slots__ = ("_store", "index")

    def __init__(self, store: SparseLedgers, index: int):
        self._store = store
        self.index = int(index)

    @property
    def n(self) -> int:
        return self._store.n

    @property
    def forgetting(self) -> float:
        return float(self._store.forgetting[self.index])

    @property
    def credits(self) -> np.ndarray:
        cols = np.arange(self._store.n, dtype=np.int64)
        row = self._store.row_at(self.index, cols)
        row.flags.writeable = False
        return row

    def credit_of(self, peer: int) -> float:
        cols = np.asarray([peer], dtype=np.int64)
        return float(self._store.row_at(self.index, cols)[0])

    def total(self) -> float:
        return float(self.credits.sum())

    def share_of(self, peer: int) -> float:
        return float(self.credit_of(peer) / self.credits.sum())


def _locate(idx: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion points of sorted ``keys`` in a row's sorted, nonempty
    entry index ``idx``, and which keys are already entries."""
    pos = np.searchsorted(idx, keys)
    return pos, idx[np.minimum(pos, idx.size - 1)] == keys


def sparse_pairwise(pos: np.ndarray, val: np.ndarray, length: int) -> float:
    """Bit-exact ``numpy.sum`` of a dense float64 vector of ``length``
    whose only (potentially) nonzero cells are ``val`` at sorted
    positions ``pos`` — in ``O(len(pos))`` instead of ``O(length)``.

    Mirrors numpy's ``pairwise_sum_DOUBLE`` recursion: blocks of at most
    128 elements are summed with eight accumulator chains over the
    position-residues mod 8 plus a sequential tail, larger ranges split
    recursively at multiples of 8.  Listed zero values are permitted
    (they add exactly like the dense zeros they are); ``-0.0`` inputs
    are not (see module docstring).
    """
    pos = np.ascontiguousarray(pos, dtype=np.int64)
    val = np.ascontiguousarray(val, dtype=np.float64)
    return _spw(pos, val, 0, int(length))


def _spw(pos: np.ndarray, val: np.ndarray, off: int, length: int) -> float:
    cnt = pos.size
    if cnt == 0:
        # All-zero dense ranges reduce to +0.0 in every branch of
        # numpy's recursion, so the whole subtree collapses.
        return 0.0
    if length < 8:
        res = 0.0
        for v in val.tolist():
            res += v
        return res
    if length <= 128:
        lim = length - length % 8
        rel = pos - off
        k = int(np.searchsorted(rel, lim))
        r = [0.0] * 8
        for p, v in zip(rel[:k].tolist(), val[:k].tolist()):
            r[p & 7] += v
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in val[k:].tolist():
            res += v
        return res
    half = length // 2
    half -= half % 8
    split = int(np.searchsorted(pos, off + half))
    return _spw(pos[:split], val[:split], off, half) + _spw(
        pos[split:], val[split:], off + half, length - half
    )
