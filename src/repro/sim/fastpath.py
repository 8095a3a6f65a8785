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

The sparse engine's kernels (``sparse_rows_eq2`` / ``sparse_rows_shared``
/ ``sparse_scatter``) are multi-threaded: workers own contiguous shards
of independent rows, so the bits are identical for every thread count
(the self-check verifies that too).  :func:`thread_count` is the one
reader of ``REPRO_SIM_THREADS``.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np

from .. import native

__all__ = ["load", "FastAlloc", "thread_count"]


def thread_count() -> int:
    """Worker threads for the sparse kernels (and the CPUs behind an
    explicit ``engine="procs"``'s default worker count):
    ``REPRO_SIM_THREADS``, else :func:`repro.native.usable_cpus` — a
    container pinned to 2 of 64 CPUs starts 2 — capped at 8."""
    env = os.environ.get("REPRO_SIM_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(8, native.usable_cpus())

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
            "repro_ledger_tadd": (None, [_ptr, _ptr, _i64, _f64]),
            "repro_sparse_pairwise": (_f64, [_ptr, _ptr, _i64, _i64]),
            "repro_sparse_rows_eq2": (
                None,
                [_ptr, _ptr, _i64, _ptr, _i64, _i64, _ptr, _ptr, _ptr, _i64]
                + [_ptr] * 5 + [_i64],
            ),
            "repro_sparse_rows_shared": (
                None, [_ptr, _ptr, _i64, _ptr, _i64, _i64, _ptr, _f64, _ptr, _ptr, _i64],
            ),
            "repro_sparse_scatter": (
                None,
                [_ptr, _i64, _ptr, _i64, _ptr, _f64, _ptr, _i64]
                + [_ptr] * 5 + [_i64],
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

    def ledger_tadd(self, ledger, alloc, weight: float) -> None:
        """``ledger += alloc.T * weight`` (cache-tiled transpose add)."""
        self._lib.repro_ledger_tadd(
            ledger.ctypes.data, alloc.ctypes.data,
            ledger.shape[0], float(weight),
        )

    def sparse_pairwise(self, pos, val, length: int) -> float:
        """Dense ``float64[length].sum()`` from its materialised entries."""
        return self._lib.repro_sparse_pairwise(
            pos.ctypes.data, val.ctypes.data, pos.size, int(length)
        )

    def sparse_rows_eq2(
        self, store, act, rowpos, R, caps, M, nthreads: int | None = None
    ) -> None:
        """Equation (2) + feasibility over the active set, from the
        sparse ledger store (lazy decay caught up in-kernel)."""
        self._lib.repro_sparse_rows_eq2(
            act.ctypes.data, rowpos.ctypes.data, act.size,
            R.ctypes.data, R.size, store.n,
            caps.ctypes.data, store.background.ctypes.data,
            store.forgetting.ctypes.data, store.epoch,
            store.stamps.ctypes.data, store.nnz.ctypes.data,
            store.idx_addr.ctypes.data, store.val_addr.ctypes.data,
            M.ctypes.data,
            thread_count() if nthreads is None else nthreads,
        )

    def sparse_rows_shared(
        self, act, rowpos, R, wR, total, caps, M, n, nthreads: int | None = None
    ) -> None:
        """Equation (3) + feasibility over the active set (shared
        masked weights ``wR`` at positions ``R`` and their total)."""
        self._lib.repro_sparse_rows_shared(
            act.ctypes.data, rowpos.ctypes.data, act.size,
            R.ctypes.data, R.size, int(n),
            wR.ctypes.data, float(total), caps.ctypes.data,
            M.ctypes.data,
            thread_count() if nthreads is None else nthreads,
        )

    def sparse_scatter(
        self, store, act, R, M, weight, ok, nthreads: int | None = None
    ) -> None:
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
            thread_count() if nthreads is None else nthreads,
        )


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

        alloc = rng.random((n, n)) * 100.0
        for w in (1.0, 0.3):
            want_led = ledger.copy()
            want_led += alloc.T * w
            got_led = ledger.copy()
            k.ledger_tadd(got_led, alloc, w)
            if not identical(want_led, got_led):
                return False
    return _self_check_sparse(k)


def _self_check_sparse(k: FastAlloc) -> bool:
    """Fuzz the sparse-engine kernels: dense-replay reductions, the
    compact eq2/eq3 pipelines with lazy decay catch-up, the fused
    scatter, and thread-count invariance — zero bit differences."""
    from ..core.allocation import enforce_feasibility
    from .sparse import SparseLedgers

    rng = np.random.default_rng(0x5BA85E)
    identical = lambda a, b: a.tobytes() == b.tobytes()  # noqa: E731

    # Pairwise replay: every recursion class x entry density (values are
    # non-negative — the engine's no-minus-zero precondition).
    for length in [1, 5, 7, 8, 12, 100, 127, 128, 129, 255, 1000, 4099, 65536]:
        for density in (0.0, 0.03, 0.4, 1.0):
            dense = np.zeros(length)
            mask = rng.random(length) < density
            dense[mask] = rng.random(int(mask.sum())) * rng.choice(
                [1e-12, 1.0, 1e9]
            )
            pos = np.flatnonzero(mask).astype(np.int64)
            vals = np.ascontiguousarray(dense[pos])
            if k.sparse_pairwise(pos, vals, length) != dense.sum():
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
        nthreads = int(rng.integers(1, 4))

        # Equation (2) rows vs the dense reference pipeline.
        want = np.empty((act.size, A))
        for p, i in enumerate(act.tolist()):
            w = np.where(req, dense[i], 0.0)
            tot = w.sum()
            if tot <= 0.0:
                want[p] = 0.0
                continue
            want[p] = enforce_feasibility(caps[i] * w / tot, caps[i], req)[R]
        got = np.empty((act.size, A))
        k.sparse_rows_eq2(store, act, rowpos, R, caps_act, got, nthreads)
        if not identical(want, got):
            return False
        other = np.empty_like(got)
        k.sparse_rows_eq2(store, act, rowpos, R, caps_act, other, nthreads % 3 + 1)
        if not identical(got, other):
            return False

        # Equation (3) rows (negative declared values exercise the clip).
        declared = rng.random(n) * 100.0 - 10.0
        weights = np.where(req, declared, 0.0)
        total = weights.sum()
        if total > 0.0:
            for p, i in enumerate(act.tolist()):
                want[p] = enforce_feasibility(
                    caps[i] * weights / total, caps[i], req
                )[R]
            wR = np.ascontiguousarray(declared[R])
            k.sparse_rows_shared(act, rowpos, R, wR, total, caps_act, got, n, nthreads)
            if not identical(want, got):
                return False

        # Fused scatter vs dense `pending += alloc.T * weight`, with the
        # python merge covering the kernel's ok=0 receivers.
        M = np.ascontiguousarray(rng.random((act.size, A)) * 500.0)
        weight = float(rng.choice([1.0, 7.5]))
        store.advance_epoch()
        dense *= forgetting[:, None]
        ok = np.zeros(A, dtype=np.uint8)
        k.sparse_scatter(store, act, R, M, weight, ok, nthreads)
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
