"""Sparse per-peer credit ledgers for the large-``n`` slot engine.

The batched engine owns a dense ``(n, n)`` ledger matrix — 8 TB of
int64 at ``n = 10^6``.  Real interaction graphs are sparse: a peer
accumulates credit only with the partners it has actually exchanged
slots with, so :class:`SparseLedgers` stores row ``i`` as explicit
``(partner index, bytes)`` arrays, sorted by partner, for historical
partners only; every other partner's count is 0.  A float
**background** per row (the initial credit, decayed once per feedback
flush) is what the readers add to every count; Equation (2) never
reads it (:func:`~repro.core.apportion.eq2_grants`).

**Invariant** (the bit-identity contract with the dense engines): an
explicit entry's value equals the dense matrix cell ``C[i][j]``, and
every non-explicit cell is 0.

Forgetting decay on explicit entries is applied **lazily** via per-row
epoch stamps: the store counts feedback flushes in :attr:`epoch`, and a
row touched after ``k`` missed flushes catches up by flooring its
values times ``forgetting`` ``k`` times in sequence — the same ``k``
floors the reference ledger performed eagerly, so the bits agree no
matter when the catch-up happens.  Idle rows therefore cost nothing per
slot.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .. import native
from ..core.apportion import decay
from ..core.ledger import ByteLedger

__all__ = ["SparseLedgers", "SparseLedgerView"]

#: ``struct ledger_rows`` of ``_fastalloc.c``: a store's row records and
#: its epoch.
_Rows = native.struct("_Rows", ("records",), ("epoch",))


class SparseLedgers:
    """CSR-style per-peer credit rows with lazy forgetting decay.

    Parameters
    ----------
    n:
        Number of peers (the column span of every row).
    initial:
        Initial credit (every row's background, in kbps x s).
    forgetting:
        ``(rows,)`` per-row forgetting factors in ``(0, 1]``.
    rows:
        Number of rows this store owns.  Defaults to ``n``; a
        shard-local store (the procs engine) owns a contiguous row
        slice while its columns still span the whole population, so
        row indices are *local* and column/partner indices *global*.

    Alongside the Python-dict row storage, the store keeps one record
    per row — :attr:`nnz`, :attr:`idx_addr`, :attr:`val_addr`,
    :attr:`stamps` and :attr:`forgetting`, columns of one ``(rows, 5)``
    table — so the native kernels reach any row's entry arrays and decay
    state from one record (one or two cache lines) without per-row
    Python marshalling.  ``nnz[i] == -1`` marks a *dense island* row
    (slow-path peers keep a real dense ledger vector, eagerly decayed).
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
        #: Feedback flushes seen so far (the decay clock).
        self.epoch = 0
        #: One ``struct ledger_row`` of ``_fastalloc.c`` a row; the
        #: attributes below are its columns.
        self._records = np.zeros((self.rows, 5), dtype=np.int64)
        #: Explicit entries per row; -1 flags a dense island row.
        self.nnz = self._records[:, 0]
        #: Base addresses of each row's int64 index / int64 value
        #: arrays (0 when the row has none) — the native kernels' view.
        self.idx_addr = self._records[:, 1]
        self.val_addr = self._records[:, 2]
        #: Last epoch each sparse row's explicit values were decayed to.
        self.stamps = self._records[:, 3]
        #: Per-row forgetting factors.
        self.forgetting = self._records.view(np.float64)[:, 4]
        self.forgetting[:] = forgetting
        self._idx: dict[int, np.ndarray] = {}
        self._val: dict[int, np.ndarray] = {}
        self._dense: dict[int, np.ndarray] = {}
        self._any_forgetting = bool((self.forgetting < 1.0).any())
        self._bound = _Rows(native.address(self._records), 0)
        #: What a kernel call passes for the store: the records never
        #: move, and :meth:`advance_epoch` updates the epoch there too.
        self.address = ctypes.addressof(self._bound)

    # -- row lifecycle -------------------------------------------------

    def dense_row(self, i: int) -> np.ndarray:
        """Allocate a dense island row for a slow-path peer.

        The store decays it eagerly at every flush and scatters credit
        into it directly.
        """
        i = int(i)
        row = np.zeros(self.n, dtype=np.int64)
        self._dense[i] = row
        self.nnz[i] = -1
        return row

    def advance_epoch(self) -> None:
        """One feedback flush: decay backgrounds and dense islands now,
        stamp the clock so sparse rows catch up lazily."""
        self.epoch += 1
        self._bound.epoch = self.epoch
        if self._any_forgetting:
            self.background *= self.forgetting
            for i, row in self._dense.items():
                f = self.forgetting[i]
                if f < 1.0:
                    row[:] = decay(row, f)

    def catch_up(self, i: int) -> None:
        """Apply any missed flush decays to row ``i``'s explicit values.

        One floor per missed flush — the operations the reference
        ledger performed at each flush.
        """
        lag = self.epoch - self.stamps[i]
        if lag:
            f = float(self.forgetting[i])
            if f < 1.0:
                val = self._val[i]
                for _ in range(lag):
                    val[:] = decay(val, f)
            self.stamps[i] = self.epoch

    # -- reads ---------------------------------------------------------

    def row_at(self, i: int, cols: np.ndarray) -> np.ndarray:
        """Row ``i``'s byte counts at ``cols`` (sorted int64)."""
        i = int(i)
        dense = self._dense.get(i)
        if dense is not None:
            return dense[cols]
        out = np.zeros(cols.size, dtype=np.int64)
        idx = self._idx.get(i)
        if idx is not None:
            self.catch_up(i)
            pos, hit = _locate(idx, cols)
            out[hit] = self._val[i][pos[hit]]
        return out

    def materialize(self) -> np.ndarray:
        """Dense ``(rows, n)`` byte counts (tests / small-n interop only)."""
        out = np.zeros((self.rows, self.n), dtype=np.int64)  # repro: allow[sim-dense-alloc]
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

        ``add_idx`` must be sorted unique int64; new entries start at 0.
        """
        i = int(i)
        dense = self._dense.get(i)
        if dense is not None:
            dense[add_idx] += add_val
            return
        idx = self._idx.get(i)
        if idx is None:
            self.stamps[i] = self.epoch
            self._publish(i, add_idx.copy(), np.array(add_val, dtype=np.int64))
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
        new_val = np.concatenate([val, add_val[miss]])
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
        this path copies every row's entry values in one vectorised
        step, publishes the rows' kernel records with one arithmetic
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
        vals = np.array(add_val, dtype=np.int64, order="C")
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

        The deferred-feedback buffer (no forgetting)
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
        fixed = self.background.nbytes + self._records.nbytes
        rows = sum(a.nbytes for a in self._idx.values())
        rows += sum(a.nbytes for a in self._val.values())
        rows += sum(a.nbytes for a in self._dense.values())
        return int(fixed + rows)


class SparseLedgerView(ByteLedger):
    """Read-only :class:`~repro.core.ledger.ByteLedger` over one sparse
    row.

    Fast-path peers under the sparse engine never call their allocator's
    ``allocate`` (the engine evaluates Equation (2) directly from the
    store), but user code may still inspect ``sim.peers[i].ledger``;
    this view answers those reads by materialising the full dense row —
    O(n), fine for inspection, not for hot loops.
    """

    __slots__ = ("_store",)

    def __init__(self, store: SparseLedgers, index: int):
        super().__init__(None, store.background, index, store.forgetting[index])
        self._store = store

    def counts(self) -> np.ndarray:
        return self._store.row_at(self.index, np.arange(self._store.n, dtype=np.int64))

    @property
    def n(self) -> int:
        return self._store.n


def _locate(idx: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion points of sorted ``keys`` in a row's sorted, nonempty
    entry index ``idx``, and which keys are already entries."""
    pos = np.searchsorted(idx, keys)
    return pos, idx[np.minimum(pos, idx.size - 1)] == keys
