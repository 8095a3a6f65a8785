"""Native kernels for the batched and sparse allocation engines.

The batched engine's hot loop at large ``n`` is memory-bandwidth bound;
numpy alone pays one full matrix pass per sub-expression.  This module
is the ctypes facade over ``_fastalloc.c``'s fused kernels and their
self-check; compiling, caching, loading and the ``REPRO_NO_NATIVE``
switch belong to :mod:`repro.native`.

Correctness gate: every path must produce the reference slot loop's
bits, so the library is only accepted after :func:`_self_check` fuzzes
its rows, scatter and fold against the numpy implementations — up to
the largest ledger totals the apportionment guard admits — and sees
*zero* differences.  Otherwise :func:`load` returns ``None`` and the
engine falls back to the pure-numpy path (same results, smaller
speedup).  Grants and ledgers are whole bytes (int64), so agreement is
exact arithmetic, not a shared summation order.

The sparse engine's kernels are single-threaded; ``sparse_rows_eq2``
computes each distinct *cold* row (no byte from any requester: an equal
split, a function of the capacity alone) once and copies it.  A row
outside the apportionment guard raises :class:`OverflowError`.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from .. import native

__all__ = ["load", "FastAlloc"]

_SOURCE = Path(__file__).with_name("_fastalloc.c")

#: Arrays cross as ``arr.ctypes.data`` addresses through ``c_void_p``
#: argtypes, as in :class:`repro.gf.bitmatmul.GF2Kernel`: a slot makes
#: ~20 conversions, and ``data_as`` builds a typed pointer object each.
_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_f64 = ctypes.c_double


class FastAlloc:
    """ctypes facade over the compiled kernels.

    All array arguments must be C-contiguous with the exact dtypes the
    engine uses (int64 ledgers, grants, capacities and indices, float64
    forgetting factors, uint8 request mask); the engine owns every
    buffer it passes, so no conversions happen here.
    """

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        signatures = {
            "repro_alloc_rows_eq2": (_i64, [_ptr] * 4 + [_i64, _i64, _ptr]),
            "repro_alloc_rows_shared": (_i64, [_ptr] * 4 + [_i64, _i64, _ptr]),
            "repro_ledger_tadd": (None, [_ptr, _ptr, _ptr, _i64, _f64]),
            "repro_sparse_rows_eq2": (
                _i64, [_ptr, _ptr, _i64, _ptr, _i64, _ptr, _ptr, _i64] + [_ptr] * 5,
            ),
            "repro_sparse_rows_shared": (_i64, [_ptr, _i64, _i64, _ptr, _ptr, _ptr]),
            "repro_sparse_scatter": (
                None,
                [_ptr, _i64, _ptr, _i64, _ptr, _f64, _ptr, _i64] + [_ptr] * 5,
            ),
        }
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes

    def alloc_rows_eq2(self, ledger, req_u8, caps, rows, out) -> None:
        """Equation (2) grants of ``rows`` (capacities ``caps``) over the
        requesters ``req_u8`` into ``out``'s rows, in place."""
        _checked(self._lib.repro_alloc_rows_eq2(
            ledger.ctypes.data, req_u8.ctypes.data,
            caps.ctypes.data, rows.ctypes.data,
            rows.size, ledger.shape[0], out.ctypes.data,
        ))

    def alloc_rows_shared(self, weights, req_u8, caps, rows, out) -> None:
        """Equation (3) grants: every row apportions over ``weights``
        (the declared bytes, 0 at non-requesters)."""
        _checked(self._lib.repro_alloc_rows_shared(
            weights.ctypes.data, req_u8.ctypes.data,
            caps.ctypes.data, rows.ctypes.data,
            rows.size, weights.size, out.ctypes.data,
        ))

    def ledger_tadd(self, ledger, alloc, req_u8, weight: float) -> None:
        """``ledger += slot_credit(alloc.T, weight)`` (cache-tiled
        transpose add) on the requesters' rows: a non-requester's
        column of ``alloc`` is 0."""
        self._lib.repro_ledger_tadd(
            ledger.ctypes.data, alloc.ctypes.data, req_u8.ctypes.data,
            ledger.shape[0], float(weight),
        )

    def sparse_rows_eq2(self, store, act, rowpos, R, caps, M) -> int:
        """Equation (2) grants over the active set, from the sparse
        ledger store (lazy decay caught up in-kernel); returns how many
        (cold) rows were copied rather than computed."""
        return _checked(self._lib.repro_sparse_rows_eq2(
            act.ctypes.data, rowpos.ctypes.data, act.size,
            R.ctypes.data, R.size, caps.ctypes.data,
            store.forgetting.ctypes.data, store.epoch,
            store.stamps.ctypes.data, store.nnz.ctypes.data,
            store.idx_addr.ctypes.data, store.val_addr.ctypes.data,
            M.ctypes.data,
        ))

    def sparse_rows_shared(self, rowpos, wR, caps, M) -> None:
        """Equation (3) grants over the active set: every row
        apportions over the shared weights ``wR``."""
        _checked(self._lib.repro_sparse_rows_shared(
            rowpos.ctypes.data, rowpos.size, wR.size,
            wR.ctypes.data, caps.ctypes.data, M.ctypes.data,
        ))

    def sparse_scatter(self, store, act, R, M, weight, ok) -> None:
        """Fused feedback credit into the sparse store; ``ok[a] = 0``
        marks receivers the python merge must handle (new entries,
        dense islands)."""
        self._lib.repro_sparse_scatter(
            act.ctypes.data, act.size, R.ctypes.data, R.size,
            M.ctypes.data, float(weight),
            store.forgetting.ctypes.data, store.epoch,
            store.stamps.ctypes.data, store.nnz.ctypes.data,
            store.idx_addr.ctypes.data, store.val_addr.ctypes.data,
            ok.ctypes.data,
        )


def _checked(status: int) -> int:
    """A row kernel's result: -1 a row outside the apportionment guard,
    -2 no scratch memory."""
    if status == -1:
        raise OverflowError("ledger total too large for exact apportionment")
    if status < 0:
        raise MemoryError("allocation kernel could not allocate its scratch row")
    return status


def _self_check(k: FastAlloc) -> bool:
    """Fuzz the kernels against numpy, demanding zero differences."""
    from ..core.apportion import MAX_RATE, apportion, eq2_grants, slot_credit

    rng = np.random.default_rng(0xFA57A110C)
    for _ in range(60):
        n = int(rng.integers(1, 50))
        ledger = rng.integers(0, 10 ** int(rng.integers(1, 11)), (n, n))
        ledger[rng.random((n, n)) < 0.3] = 0
        req = rng.random(n) < 0.7
        R = np.flatnonzero(req)
        req_u8 = req.view(np.uint8)
        caps = rng.integers(0, 10 ** int(rng.integers(1, 8)), n)
        declared = rng.integers(0, 10 ** 6, n) * req
        rows = np.arange(n, dtype=np.int64)
        for got_rows, want_rows in (
            (lambda out: k.alloc_rows_eq2(ledger, req_u8, caps, rows, out),
             lambda: eq2_grants(caps, ledger[:, R])),
            (lambda out: k.alloc_rows_shared(declared, req_u8, caps, rows, out),
             lambda: apportion(caps, np.broadcast_to(declared[R], (n, R.size)))),
        ):
            want = np.zeros((n, n), dtype=np.int64)  # repro: allow[sim-dense-alloc] tiny self-check
            want[:, R] = want_rows()
            got = np.full((n, n), -1, dtype=np.int64)  # repro: allow[sim-dense-alloc] tiny self-check
            got_rows(got)
            if not np.array_equal(want, got):
                return False
    if not _self_check_guard(k, MAX_RATE):
        return False

    # The masked fold at every tile edge and at sim_dense's n: three
    # folds into one ledger (everyone, half, nobody requesting), then
    # one comparison.  The ledger starts as r[j] + c[i] and each alloc
    # is a[i] * b[j] with b zero at non-requesters (their columns 0, as
    # the rows leave them), so the reference is rebuilt strip by strip
    # in the ledger's own layout: at n = 1024 the check holds two (n, n)
    # arrays and stays under the batched engine's peak memory.
    for n in TADD_SIZES:
        r, c = rng.integers(0, 1 << 39, n), rng.integers(0, 1 << 39, n)
        a = rng.integers(0, 1 << 20, n)
        alloc = np.empty((n, n), dtype=np.int64)  # repro: allow[sim-dense-alloc] self-check
        got = np.add.outer(r, c)
        folds = []
        for req in tadd_masks(rng, n):
            b = rng.integers(0, 1 << 20, n) * req
            w = float(rng.choice([1.0, 7.5, 0.3]))
            np.multiply.outer(a, b, out=alloc)
            k.ledger_tadd(got, alloc, req.view(np.uint8), w)
            folds.append((b, w))
        for lo in range(0, n, 128):
            want = np.add.outer(r[lo:lo + 128], c)
            for b, w in folds:
                want += slot_credit(np.multiply.outer(b[lo:lo + 128], a), w)
            if not np.array_equal(want, got[lo:lo + 128]):
                return False
    return _self_check_sparse(k)


def _self_check_guard(k: FastAlloc, max_rate: int) -> bool:
    """Rows at the largest totals the apportionment guard admits, and
    one past it: equal grants at the edge, an ``OverflowError`` beyond
    it on both sides (UBSan traps any signed overflow on the way)."""
    from ..core.apportion import apportion

    limit = np.iinfo(np.int64).max
    for cap in (1, 32_000, 1 << 31, max_rate):
        total = limit // (cap + 1)
        w = np.array([total // 3, total // 3, total - 2 * (total // 3)], dtype=np.int64)
        req_u8 = np.ones(3, dtype=np.uint8)
        caps = np.array([cap], dtype=np.int64)
        rows = np.zeros(1, dtype=np.int64)
        got = np.empty((1, 3), dtype=np.int64)
        k.alloc_rows_shared(w, req_u8, caps, rows, got)
        if not np.array_equal(got, apportion(caps, w[None])) or got.sum() != cap:
            return False
        w[0] += 1
        for side in (lambda: k.alloc_rows_shared(w, req_u8, caps, rows, got),
                     lambda: apportion(caps, w[None])):
            try:
                side()
                return False
            except OverflowError:
                pass
    return True


#: Sizes of the masked-fold check: one tile, either side of the 16-row
#: and 128-row tile edges, and ``sim_dense``'s n.
TADD_SIZES = (1, 7, 15, 16, 17, 63, 64, 65, 127, 128, 129, 200, 1024)


def tadd_masks(rng: np.random.Generator, n: int):
    """Request masks for the masked fold: everyone, a random half,
    nobody (each a subset of the one before)."""
    yield np.ones(n, dtype=bool)
    yield rng.random(n) < 0.5
    yield np.zeros(n, dtype=bool)


def eq2_mix(rng: np.random.Generator):
    """``(store, rows, rowpos, R, caps)`` of an Equation (2) call mixing
    warm rows (entries at requesters) and cold ones (entries elsewhere,
    zero-valued, or none) whose capacities repeat or differ."""
    from .sparse import SparseLedgers

    n = int(rng.integers(40, 600))
    R = np.unique(rng.integers(0, n, int(rng.integers(1, 100))))
    store = SparseLedgers(n, 1e-6, rng.choice([1.0, 0.9], n))
    rows = rng.choice(n, size=int(rng.integers(1, 24)), replace=False)
    choices = (R, np.setdiff1d(np.arange(n), R), R[:0])
    for i in rows.tolist():
        cols = choices[rng.integers(3)]
        if cols.size:
            cols = np.unique(rng.choice(cols, 5))
            store.add_compact(i, cols, rng.integers(0, 3, cols.size) * rng.integers(1, 10 ** 6))
    store.advance_epoch()
    caps = rng.choice([1, 3000, 700_000], rows.size)
    return store, rows, rng.permutation(rows.size), R, caps


def _self_check_sparse(k: FastAlloc) -> bool:
    """Fuzz the sparse-engine kernels — cold and warm Eq. (2) rows
    against the numpy rows, the eq2/eq3 rows with lazy decay against
    the dense reference, the fused scatter — demanding zero
    differences."""
    from ..core.apportion import apportion, decay, eq2_grants, slot_credit
    from .shard import numpy_eq2_rows
    from .sparse import SparseLedgers

    rng = np.random.default_rng(0x5BA85E)
    for _ in range(12):
        store, rows, rowpos, R, caps = eq2_mix(rng)
        want = np.empty((rows.size, R.size), dtype=np.int64)
        numpy_eq2_rows(store, rows, rowpos, R, caps, want)
        got = np.empty_like(want)
        k.sparse_rows_eq2(store, rows, rowpos, R, caps, got)
        if not np.array_equal(want, got):
            return False

    for _ in range(12):
        # Build a store and its eagerly decayed dense replica through a
        # few epochs of entry creation, so rows carry mixed decay lags.
        n = int(rng.integers(6, 48))
        forgetting = np.where(rng.random(n) < 0.5, 1.0, 0.5 + rng.random(n) * 0.5)
        store = SparseLedgers(n, 1e-6, forgetting)
        dense = np.zeros((n, n), dtype=np.int64)  # repro: allow[sim-dense-alloc] self-check oracle
        for _ in range(int(rng.integers(1, 4))):
            for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False):
                cols = np.flatnonzero(rng.random(n) < 0.4).astype(np.int64)
                if cols.size:
                    vals = rng.integers(0, 10 ** 7, cols.size)
                    store.add_compact(int(i), cols, vals)
                    dense[i, cols] += vals
            store.advance_epoch()
            dense = decay(dense, forgetting[:, None])
        req = rng.random(n) < 0.6
        req[0] = True
        R = np.flatnonzero(req).astype(np.int64)
        caps = rng.integers(0, 10 ** 6, n)
        act = np.flatnonzero(caps > 0).astype(np.int64)
        rowpos = np.arange(act.size, dtype=np.int64)
        got = np.empty((act.size, R.size), dtype=np.int64)
        k.sparse_rows_eq2(store, act, rowpos, R, caps[act], got)
        if not np.array_equal(eq2_grants(caps[act], dense[np.ix_(act, R)]), got):
            return False
        declared = rng.integers(0, 10 ** 6, n)
        k.sparse_rows_shared(rowpos, declared[R], caps[act], got)
        want = apportion(caps[act], np.broadcast_to(declared[R], (act.size, R.size)))
        if not np.array_equal(want, got):
            return False

        # Fused scatter vs the dense fold, with the python merge
        # covering the kernel's ok=0 receivers.
        M = rng.integers(0, 10 ** 6, (act.size, R.size))
        weight = float(rng.choice([1.0, 7.5]))
        store.advance_epoch()
        dense = decay(dense, forgetting[:, None])
        ok = np.zeros(R.size, dtype=np.uint8)
        k.sparse_scatter(store, act, R, M, weight, ok)
        P = slot_credit(M, weight)
        for a in np.flatnonzero(ok == 0).tolist():
            store.add_compact(int(R[a]), act, np.ascontiguousarray(P[:, a]))
        dense[np.ix_(R, act)] += P.T
        if not np.array_equal(store.materialize(), dense):
            return False
    return True


def load() -> FastAlloc | None:
    """Compile/load/verify the kernels once; ``None`` means fall back."""
    return native.load("fastalloc", _SOURCE, FastAlloc, _self_check)
