"""Native kernels for the batched and sparse allocation engines.

The batched engine's hot loop at large ``n`` is memory-bandwidth bound;
numpy alone pays one full matrix pass per sub-expression.  This module
is the ctypes facade over ``_fastalloc.c``'s fused kernels and their
self-check; compiling, caching, loading and the ``REPRO_NO_NATIVE``
switch belong to :mod:`repro.native`.

Correctness gate: the engine's contract is that every path is
**bit-identical** to the reference slot loop, so the library is only
accepted after :func:`_self_check` fuzzes its reductions and full row
pipelines against the numpy implementations and sees *zero* bit
differences.  Otherwise :func:`load` returns ``None`` and the engine
silently falls back to the pure-numpy path (same results, smaller
speedup).

The sparse engine's kernels are single-threaded.  A call plans numpy's
pairwise recursion over its request set once and replays the plan for
every sum, and ``sparse_rows_eq2`` computes each distinct *cold* row (no
ledger entry at any requester: a function of background credit and
capacity alone) once and copies it.  A failed plan raises
:class:`MemoryError`.
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
    engine uses (float64 matrices/vectors, uint8 request mask, int64 row
    indices); the engine owns every buffer it passes, so no conversions
    happen here.
    """

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        signatures = {
            "repro_pairwise_sum": (_f64, [_ptr, _i64]),
            "repro_alloc_rows_eq2": (None, [_ptr] * 4 + [_i64, _i64, _ptr]),
            "repro_alloc_rows_shared": (
                None, [_ptr, _f64, _ptr, _ptr, _ptr, _i64, _i64, _ptr],
            ),
            "repro_ledger_tadd": (None, [_ptr, _ptr, _ptr, _i64, _f64]),
            "repro_sparse_pairwise": (_i64, [_ptr, _ptr, _i64, _i64, _ptr]),
            "repro_sparse_rows_eq2": (
                _i64,
                [_ptr, _ptr, _i64, _ptr, _i64, _i64, _ptr, _ptr, _ptr, _i64]
                + [_ptr] * 5,
            ),
            "repro_sparse_rows_shared": (
                _i64, [_ptr, _i64, _ptr, _i64, _i64, _ptr, _ptr, _ptr],
            ),
            "repro_sparse_scatter": (
                None,
                [_ptr, _i64, _ptr, _i64, _ptr, _f64, _ptr, _i64] + [_ptr] * 5,
            ),
        }
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes

    def pairwise_sum(self, a: np.ndarray) -> float:
        return self._lib.repro_pairwise_sum(a.ctypes.data, a.size)

    def alloc_rows_eq2(self, ledger, req_u8, caps, rows, out) -> None:
        """Equation (2) + feasibility for ``rows`` of ``out`` in place."""
        self._lib.repro_alloc_rows_eq2(
            ledger.ctypes.data, req_u8.ctypes.data,
            caps.ctypes.data, rows.ctypes.data,
            rows.size, ledger.shape[0], out.ctypes.data,
        )

    def alloc_rows_shared(self, weights, total, req_u8, caps, rows, out) -> None:
        """Equation (3) + feasibility (shared masked weight vector)."""
        self._lib.repro_alloc_rows_shared(
            weights.ctypes.data, float(total), req_u8.ctypes.data,
            caps.ctypes.data, rows.ctypes.data,
            rows.size, weights.size, out.ctypes.data,
        )

    def ledger_tadd(self, ledger, alloc, req_u8, weight: float) -> None:
        """``ledger += alloc.T * weight`` (cache-tiled transpose add) on
        the requesters' rows.  ``alloc`` must have passed feasibility
        for the mask ``req_u8`` (non-requester columns +0.0), so the
        rows it skips would only have gained +0.0."""
        self._lib.repro_ledger_tadd(
            ledger.ctypes.data, alloc.ctypes.data, req_u8.ctypes.data,
            ledger.shape[0], float(weight),
        )

    def sparse_pairwise(self, pos, val, length: int) -> float:
        """Dense ``float64[length].sum()`` from its materialised entries."""
        out = ctypes.c_double()
        _planned(self._lib.repro_sparse_pairwise(
            pos.ctypes.data, val.ctypes.data, pos.size, int(length), ctypes.byref(out)
        ))
        return out.value

    def sparse_rows_eq2(self, store, act, rowpos, R, caps, M) -> int:
        """Equation (2) + feasibility over the active set, from the
        sparse ledger store (lazy decay caught up in-kernel); returns
        how many (cold) rows were copied rather than computed."""
        return _planned(self._lib.repro_sparse_rows_eq2(
            act.ctypes.data, rowpos.ctypes.data, act.size,
            R.ctypes.data, R.size, store.n,
            caps.ctypes.data, store.background.ctypes.data,
            store.forgetting.ctypes.data, store.epoch,
            store.stamps.ctypes.data, store.nnz.ctypes.data,
            store.idx_addr.ctypes.data, store.val_addr.ctypes.data,
            M.ctypes.data,
        ))

    def sparse_rows_shared(self, rowpos, R, wR, caps, M, n) -> None:
        """Equation (3) + feasibility over the active set: one shared
        weight vector ``wR`` at positions ``R``, totalled in-kernel
        (rows are zero unless the total is positive)."""
        _planned(self._lib.repro_sparse_rows_shared(
            rowpos.ctypes.data, rowpos.size, R.ctypes.data, R.size, int(n),
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


def _planned(status: int) -> int:
    """A sparse kernel's result; negative: no plan, nothing written."""
    if status < 0:
        raise MemoryError("sparse kernel could not allocate its pairwise plan")
    return status


def _self_check(k: FastAlloc) -> bool:
    """Fuzz the kernels against numpy, demanding zero bit differences."""
    from ..core.allocation import (
        PeerwiseProportionalAllocator,
        enforce_feasibility_rows,
    )
    from ..core.baselines import GlobalProportionalAllocator

    rng = np.random.default_rng(0xFA57A110C)
    identical = lambda a, b: a.tobytes() == b.tobytes()  # noqa: E731

    # Pairwise reductions: every length class numpy's recursion visits.
    lengths = [0, 1, 5, 7, 8, 9, 16, 100, 127, 128, 129, 255, 256, 1000, 1024, 4099]
    for n in lengths:
        for scale in (1.0, 1e-12, 1e12):
            a = (rng.random(n) - 0.3) * scale
            if k.pairwise_sum(a) != a.sum() and n:
                return False

    eq2 = PeerwiseProportionalAllocator()
    eq3 = GlobalProportionalAllocator()
    for _ in range(60):
        n = int(rng.integers(1, 50))
        # Scales include subnormal ranges: dividing by a subnormal
        # weight total is exactly where a factored cap/total form
        # would overflow where the reference stays finite.
        ledger = rng.random((n, n)) * rng.choice([1e-310, 1e-6, 1.0, 1e9])
        ledger[rng.random((n, n)) < 0.2] = 0.0
        req = rng.random(n) < 0.7
        req_u8 = req.view(np.uint8)
        caps = rng.random(n) * rng.choice([0.0, 5e-324, 1e-300, 1.0, 2000.0])
        declared = rng.random(n) * rng.choice([1e-311, 1.0, 1000.0])
        rows = np.arange(n, dtype=np.int64)
        idx = np.arange(n)

        want = enforce_feasibility_rows(
            eq2.allocate_rows(idx, caps, req, ledger, declared, 0), caps, req
        )
        got = np.empty((n, n))  # repro: allow[sim-dense-alloc] tiny self-check
        k.alloc_rows_eq2(ledger, req_u8, caps, rows, got)
        if not identical(want, got):
            return False

        weights = np.where(req, declared, 0.0)
        want = enforce_feasibility_rows(
            eq3.allocate_rows(idx, caps, req, ledger, declared, 0), caps, req
        )
        k.alloc_rows_shared(weights, weights.sum(), req_u8, caps, rows, got)
        if not identical(want, got):
            return False


    # The masked fold at every tile edge and at sim_dense's n: three
    # folds into one ledger (everyone, half, nobody requesting), then
    # one comparison.  The ledger starts as r[j] + c[i] and each alloc
    # is a[i] * b[j] with b zero at non-requesters (their columns +0.0,
    # as feasibility leaves them), so the reference is rebuilt strip by
    # strip in the ledger's own layout: at n = 1024 the check holds two
    # (n, n) arrays and stays under the batched engine's peak memory.
    for n in TADD_SIZES:
        r, c = rng.random(n) * 1e3, rng.random(n)
        a = rng.random(n) * 100.0
        alloc = np.empty((n, n))  # repro: allow[sim-dense-alloc] self-check
        got = np.add.outer(r, c)
        folds = []
        for req in tadd_masks(rng, n):
            b = rng.random(n) * req
            w = float(rng.choice([1.0, 0.3]))
            np.multiply.outer(a, b, out=alloc)
            k.ledger_tadd(got, alloc, req.view(np.uint8), w)
            folds.append((b, w))
        for lo in range(0, n, 128):
            want = np.add.outer(r[lo:lo + 128], c)
            for b, w in folds:
                # alloc.T[j, i] = b[j] * a[i]: the product commutes bitwise.
                want += np.multiply.outer(b[lo:lo + 128], a) * w
            if not np.array_equal(want.view(np.int64), got[lo:lo + 128].view(np.int64)):
                return False
    return _self_check_sparse(k)


#: Sizes of the masked-fold check: one tile, either side of the 16-row
#: and 128-row tile edges, and ``sim_dense``'s n.
TADD_SIZES = (1, 7, 15, 16, 17, 63, 64, 65, 127, 128, 129, 200, 1024)


def tadd_masks(rng: np.random.Generator, n: int):
    """Request masks for the masked fold: everyone, a random half,
    nobody (each a subset of the one before)."""
    yield np.ones(n, dtype=bool)
    yield rng.random(n) < 0.5
    yield np.zeros(n, dtype=bool)


def pairwise_cases(rng: np.random.Generator):
    """``(positions, length)`` for the plan check: none, one, extents
    under 8, 128 and 129, random densities, strided and clustered runs,
    and a run to the end (the last leaf's tail past a multiple of 8)."""
    for length in (1, 5, 7, 8, 12, 100, 127, 128, 129, 255, 1001, 4099, 100_000):
        yield np.empty(0, dtype=np.int64), length
        yield rng.integers(0, length, 1), length
        for density in (0.03, 0.4, 1.0):
            yield np.flatnonzero(rng.random(length) < density), length
        stride = int(rng.integers(1, 80))
        yield np.arange(int(rng.integers(0, stride)), length, stride), length
        runs = [np.arange(s, s + int(rng.integers(1, 40))) for s in rng.integers(0, length, 3)]
        yield np.unique(np.concatenate(runs) % length), length
        yield np.arange(max(0, length - int(rng.integers(3, 40))), length), length


def pairwise_values(rng: np.random.Generator, size: int) -> np.ndarray:
    """Non-negative values over 22 decades: summation order shows."""
    return rng.random(size) * 10.0 ** rng.integers(-12, 10, size)


def eq2_mix(rng: np.random.Generator):
    """``(store, rows, rowpos, R, caps)`` of an Equation (2) call mixing
    warm rows (entries at requesters) and cold ones (entries elsewhere,
    or none) whose ``(background, cap)`` pairs repeat or differ."""
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
            store.add_compact(i, cols, rng.random(cols.size) * 10.0)
    store.advance_epoch()
    store.background[rows] = rng.choice([0.0, 5e-324, 1e-6, 0.37, 1e3], rows.size)
    caps = rng.choice([1e-300, 3.0, 700.0], rows.size)
    return store, rows, rng.permutation(rows.size), R, caps


def _self_check_sparse(k: FastAlloc) -> bool:
    """Fuzz the sparse-engine kernels — the pairwise plan against dense
    sums, cold and warm Eq. (2) rows against the numpy rows, the eq2/eq3
    pipelines with lazy decay against the dense reference, the fused
    scatter — demanding zero bit differences."""
    from ..core.allocation import enforce_feasibility
    from .shard import numpy_eq2_rows
    from .sparse import SparseLedgers

    rng = np.random.default_rng(0x5BA85E)
    identical = lambda a, b: a.tobytes() == b.tobytes()  # noqa: E731

    for pos, length in pairwise_cases(rng):
        dense = np.zeros(length)
        dense[pos] = pairwise_values(rng, pos.size)
        if k.sparse_pairwise(pos.astype(np.int64), dense[pos], length) != dense.sum():
            return False

    for _ in range(12):
        store, rows, rowpos, R, caps = eq2_mix(rng)
        want = np.empty((rows.size, R.size))
        numpy_eq2_rows(store, rows, rowpos, R, caps, want)
        got = np.empty_like(want)
        k.sparse_rows_eq2(store, rows, rowpos, R, caps, got)
        if not identical(want, got):
            return False

    for trial in range(12):
        # Build a store and its eagerly-decayed dense replica through a
        # few epochs of entry creation, so rows carry mixed decay lags.
        n = int(rng.integers(6, 48))
        forgetting = np.where(
            rng.random(n) < 0.5, 1.0, 0.5 + rng.random(n) * 0.5
        )
        store = SparseLedgers(n, 1e-6, forgetting)
        dense = np.full((n, n), 1e-6)  # repro: allow[sim-dense-alloc] self-check oracle
        for _ in range(int(rng.integers(1, 4))):
            for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False):
                cols = np.flatnonzero(rng.random(n) < 0.4).astype(np.int64)
                if not cols.size:
                    continue
                vals = rng.random(cols.size) * 10.0
                store.add_compact(int(i), cols, vals)
                dense[i, cols] += vals
            store.advance_epoch()
            dense *= forgetting[:, None]

        req = rng.random(n) < 0.6
        if not req.any():
            req[0] = True
        R = np.flatnonzero(req).astype(np.int64)
        A = R.size
        caps = rng.random(n) * rng.choice([1e-300, 1.0, 2000.0])
        act = np.flatnonzero(caps > 0.0).astype(np.int64)
        if not act.size:
            continue
        caps_act = np.ascontiguousarray(caps[act])
        rowpos = np.arange(act.size, dtype=np.int64)

        # Equation (2) rows vs the dense reference pipeline.
        want = np.empty((act.size, A))
        for p, i in enumerate(act.tolist()):
            w = np.where(req, dense[i], 0.0)
            tot = w.sum()
            want[p] = enforce_feasibility(caps[i] * w / tot, caps[i], req)[R] if tot > 0.0 else 0.0
        got = np.empty((act.size, A))
        k.sparse_rows_eq2(store, act, rowpos, R, caps_act, got)
        if not identical(want, got):
            return False

        # Equation (3) rows (negative declared values exercise the clip).
        declared = rng.random(n) * 100.0 - 10.0
        weights = np.where(req, declared, 0.0)
        total = weights.sum()
        for p, i in enumerate(act.tolist()):
            want[p] = enforce_feasibility(
                caps[i] * weights / total, caps[i], req
            )[R] if total > 0.0 else 0.0
        k.sparse_rows_shared(rowpos, R, np.ascontiguousarray(declared[R]), caps_act, got, n)
        if not identical(want, got):
            return False

        # Fused scatter vs dense `pending += alloc.T * weight`, with the
        # python merge covering the kernel's ok=0 receivers.
        M = np.ascontiguousarray(rng.random((act.size, A)) * 500.0)
        weight = float(rng.choice([1.0, 7.5]))
        store.advance_epoch()
        dense *= forgetting[:, None]
        ok = np.zeros(A, dtype=np.uint8)
        k.sparse_scatter(store, act, R, M, weight, ok)
        miss = np.flatnonzero(ok == 0)
        if miss.size:
            P = M[:, miss].T * weight
            for m, a in enumerate(miss.tolist()):
                store.add_compact(int(R[a]), act, P[m])
        pend = np.zeros((n, n))  # repro: allow[sim-dense-alloc] self-check oracle
        pend[np.ix_(act, R)] = M
        dense += pend.T * weight
        if not identical(store.materialize(), dense):
            return False
    return True


def load() -> FastAlloc | None:
    """Compile/load/verify the kernels once; ``None`` means fall back."""
    return native.load("fastalloc", _SOURCE, FastAlloc, _self_check)
