"""Native kernels for the batched and sparse allocation engines.

Both engines write a slot's grants as one compact block ``M`` (givers x
the requesters ``R``): every grant to a non-requester is 0, so no
kernel touches those columns.  The batched engine's hot loop at large
``n`` is memory-bandwidth bound — its rows gather the dense ledger rows
at ``R``, and its fold credits ``M`` into the requesters' ledger rows
while summing ``M``'s columns — and numpy alone pays one full pass per
sub-expression.  This module is the facade over ``_fastalloc.c``'s
fused kernels (loaded by :mod:`repro.native`) and their self-check.

Correctness gate: every path must produce the reference slot loop's
bits, so the library is only accepted after :func:`_self_check` fuzzes
its rows, scatter and fold against the numpy implementations — up to
the largest ledger totals the apportionment guard admits — and sees
*zero* differences; else the engines run numpy.  Grants and ledgers
are whole bytes (int64), so agreement is exact arithmetic, not a
shared summation order.

The sparse engine's kernels are single-threaded; ``sparse_rows_eq2``
computes each distinct *cold* row (no byte from any requester: an equal
split, a function of the capacity alone) once and copies it.  A row
outside the apportionment guard raises :class:`OverflowError`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import native
from ..native import F64, I64, PTR, STATUS, address

__all__ = ["load", "FastAlloc"]

_SOURCE = Path(__file__).with_name("_fastalloc.c")


class FastAlloc(native.Kernel):
    """ctypes facade over the compiled kernels.  Array arguments are
    C-contiguous in the engines' exact dtypes (int64 ledgers, grants,
    capacities and indices); a long-lived one may come
    :class:`~repro.native.Bound`, and a sparse store crosses as the
    address of its bound row records."""

    SIGNATURES = {
        "repro_alloc_rows_eq2": (STATUS, [PTR, PTR, I64, PTR, PTR, I64, I64, PTR]),
        "repro_rows_shared": (STATUS, [PTR, I64, I64, PTR, PTR, PTR]),
        "repro_ledger_tadd": (None, [PTR, PTR, PTR, I64, I64, F64, PTR]),
        "repro_sparse_rows_eq2": (STATUS, [PTR, PTR, I64, PTR, I64, PTR, PTR, PTR]),
        "repro_sparse_scatter": (None, [PTR, I64, PTR, I64, PTR, F64, PTR, PTR]),
        "repro_rate_fold": (None, [PTR, PTR, PTR, PTR, PTR, I64, PTR, PTR, I64]),
    }
    ERRORS = {
        -1: "ledger total too large for exact apportionment",
        -2: "allocation kernel could not allocate its scratch row",
    }

    def alloc_rows_eq2(self, ledger, R, caps, rows, M) -> None:
        """Equation (2) grants of ``rows`` (capacities ``caps``) over the
        requesters ``R``, read from the dense ``ledger`` rows at ``R``,
        into the compact rows ``M[rows]`` (``M`` is ``(*, R.size)``)."""
        self.repro_alloc_rows_eq2(
            address(ledger), address(R), R.size, address(caps),
            address(rows), rows.size, ledger.shape[1], address(M),
        )

    def rows_shared(self, rows, wR, caps, M) -> None:
        """Equation (3) grants: every row ``M[rows[r]]`` apportions
        ``caps[r]`` over the shared weights ``wR`` (the declared bytes
        at the requesters)."""
        self.repro_rows_shared(
            address(rows), rows.size, wR.size, address(wR), address(caps), address(M),
        )

    def ledger_tadd(self, ledger, M, R, weight: float, sums) -> None:
        """``ledger[R] += slot_credit(M.T, weight)`` (cache-tiled
        transpose add): the compact grant block ``M`` (every giver x
        ``R``) credited to the requesters' ledger rows; ``sums`` (int64,
        ``R.size``) receives ``M``'s column sums from the same pass."""
        self.repro_ledger_tadd(
            address(ledger), address(M), address(R),
            R.size, ledger.shape[0], weight, address(sums),
        )

    def sparse_rows_eq2(self, store, act, rowpos, R, caps, M) -> int:
        """Equation (2) grants over the active set, from the sparse
        ledger store (lazy decay caught up in-kernel); returns how many
        (cold) rows were copied rather than computed."""
        return self.repro_sparse_rows_eq2(
            address(act), address(rowpos), act.size, address(R), R.size,
            address(caps), store.address, address(M),
        )

    def sparse_scatter(self, store, act, R, M, weight, ok) -> None:
        """Fused feedback credit into the sparse store; ``ok[a] = 0``
        marks receivers the python merge must handle (new entries,
        dense islands).  ``ok`` (uint8) holds at least ``R.size``
        entries; the kernel writes every one of the first ``R.size``."""
        self.repro_sparse_scatter(
            address(act), act.size, address(R), R.size,
            address(M), weight, store.address, address(ok),
        )

    def rate_fold(self, class_of, rate_sum, gain_sum, window_rate_sum,
                  R, rates, cap_c, window: bool) -> None:
        """``ClassFold``'s per-peer rate sums of one slot: at the rows
        ``R``, ``rate_sum`` and (``window``) ``window_rate_sum`` gain
        ``rates``, ``gain_sum`` gains ``rates - cap_c[class_of[R]]``.
        The four per-run arrays are passed :class:`~repro.native.Bound`."""
        self.repro_rate_fold(
            address(class_of), address(rate_sum), address(gain_sum),
            address(window_rate_sum), address(R), R.size, address(rates),
            address(cap_c), window,
        )


def _self_check(k: FastAlloc) -> bool:
    """Fuzz the kernels against numpy, demanding zero differences."""
    from ..core.apportion import MAX_RATE, apportion, eq2_grants, slot_credit

    rng = np.random.default_rng(0xFA57A110C)
    for _ in range(60):
        n = int(rng.integers(1, 50))
        ledger, R, caps, wR = compact_case(rng, n)
        rows = rng.permutation(n)
        for got_rows, want in (
            (lambda M: k.alloc_rows_eq2(ledger, R, caps, rows, M),
             eq2_grants(caps, ledger[np.ix_(rows, R)])),
            (lambda M: k.rows_shared(rows, wR, caps, M),
             apportion(caps, np.broadcast_to(wR, (n, R.size)))),
        ):
            got = np.full((n, R.size), -1, dtype=np.int64)
            got_rows(got)
            if not np.array_equal(want, got[rows]):
                return False
    if not _self_check_guard(k, MAX_RATE):
        return False

    # The compact fold at every tile edge and at sim_dense's n: one fold
    # per request mask into one ledger, then one comparison.  The ledger
    # starts as r[j] + c[i] and each grant is a[i] * b[j] (b zero at
    # non-requesters), so the reference is rebuilt strip by strip in the
    # ledger's own layout.  A call takes at most `span` requesters —
    # every one up to n = 129, past the 128-requester tile edge — so at
    # n = 1024 the check holds the ledger and one (n, n/2) block, what
    # the batched engine holds on sim_dense's half-requesting slots.
    for n in TADD_SIZES:
        r, c = rng.integers(0, 1 << 39, n), rng.integers(0, 1 << 39, n)
        a = rng.integers(0, 1 << 20, n)
        span = max(129, (n + 1) // 2)
        block = np.empty(n * min(n, span), dtype=np.int64)
        got = np.add.outer(r, c)
        folds = []
        for req in tadd_masks(rng, n):
            R = np.flatnonzero(req)
            b = rng.integers(0, 1 << 20, n) * req
            w = float(rng.choice([1.0, 7.5, 0.3]))
            for lo in range(0, R.size or 1, span):
                part = R[lo:lo + span]
                M = block[: n * part.size].reshape(n, part.size)
                np.multiply.outer(a, b[part], out=M)
                sums = np.empty(part.size, dtype=np.int64)
                k.ledger_tadd(got, M, part, w, sums)
                if not np.array_equal(sums, M.sum(axis=0)):
                    return False
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
    one past it, through both compact row kernels: equal grants at the
    edge, an ``OverflowError`` beyond it on both sides (UBSan traps any
    signed overflow on the way)."""
    from ..core.apportion import apportion

    limit = np.iinfo(np.int64).max
    R = np.arange(3, dtype=np.int64)
    rows = np.zeros(1, dtype=np.int64)
    got = np.empty((1, 3), dtype=np.int64)
    for cap in (1, 32_000, 1 << 31, max_rate):
        total = limit // (cap + 1)
        w = np.array([total // 3, total // 3, total - 2 * (total // 3)], dtype=np.int64)
        caps = np.array([cap], dtype=np.int64)
        kernels = (lambda: k.rows_shared(rows, w, caps, got),
                   lambda: k.alloc_rows_eq2(w[None], R, caps, rows, got))
        for side in kernels:
            side()
            if not np.array_equal(got, apportion(caps, w[None])) or got.sum() != cap:
                return False
        w[0] += 1
        for side in (*kernels, lambda: apportion(caps, w[None])):
            try:
                side()
                return False
            except OverflowError:
                pass
    return True


#: Sizes of the compact-fold check: one tile, either side of the 16-row
#: and 128-requester tile edges, and ``sim_dense``'s n.
TADD_SIZES = (1, 7, 15, 16, 17, 63, 64, 65, 127, 128, 129, 200, 1024)


def tadd_masks(rng: np.random.Generator, n: int):
    """Request masks for the compact fold: everyone, a random half, one
    peer, nobody."""
    yield np.ones(n, dtype=bool)
    yield rng.random(n) < 0.5
    yield np.arange(n) == rng.integers(n)
    yield np.zeros(n, dtype=bool)


def compact_case(rng: np.random.Generator, n: int):
    """``(ledger, R, caps, wR)`` of a compact-rows call on n peers:
    ``|R|`` is 0, 1, n or drawn, and some ledger rows hold no byte at
    ``R`` (an equal split)."""
    size = int(rng.choice([0, 1, n, rng.integers(0, n + 1)]))
    R = np.sort(rng.choice(n, size=size, replace=False)).astype(np.int64)
    ledger = rng.integers(0, 10 ** int(rng.integers(1, 11)), (n, n))
    ledger[rng.random((n, n)) < 0.3] = 0
    ledger[np.ix_(rng.random(n) < 0.3, R)] = 0
    caps = rng.integers(0, 10 ** int(rng.integers(1, 8)), n)
    return ledger, R, caps, rng.integers(0, 10 ** 6, R.size)


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


#: Receiver rows the sparse scatter meets: entries equal to the active
#: givers (written by ``add_compact``, or sharing one index array as
#: ``bulk_insert`` writes them), a strict superset of them, all but one
#: of them with one other peer in its place (as many entries as givers)
#: or with two (more), no entries, or a dense island.  The first three
#: take the kernel's in-place path.
SCATTER_SHAPES = ("exact", "shared", "superset", "swapped", "missing", "empty", "island")
IN_PLACE = ("exact", "shared", "superset")


def scatter_case(rng: np.random.Generator, lag: int = 2, n: int = 40):
    """``(store, dense, act, R, shapes)``: a sparse store whose receivers
    ``R`` (sorted) hold every shape of :data:`SCATTER_SHAPES` against
    the active givers ``act`` twice, once written ``lag`` feedback
    flushes ago and once since; ``dense`` is its eagerly decayed oracle
    and ``shapes[a]`` receiver ``R[a]``'s shape."""
    from ..core.apportion import decay
    from .sparse import SparseLedgers

    forgetting = np.where(rng.random(n) < 0.5, 1.0, 0.5 + rng.random(n) * 0.5)
    store = SparseLedgers(n, 1e-6, forgetting)
    dense = np.zeros((n, n), dtype=np.int64)  # repro: allow[sim-dense-alloc] self-check oracle
    peers, nact = rng.permutation(n), int(rng.integers(2, 8))
    act = np.sort(peers[:nact])
    extra = peers[nact:nact + 2]
    held = np.delete(act, rng.integers(nact))
    columns = {
        "exact": act,
        "superset": np.sort(np.concatenate([act, extra])),
        "swapped": np.sort(np.concatenate([held, extra[:1]])),
        "missing": np.sort(np.concatenate([held, extra])),
    }
    kinds = len(SCATTER_SHAPES)
    R = np.sort(rng.permutation(n)[:2 * kinds])
    order = rng.permutation(R.size)
    shapes = np.tile(np.array(SCATTER_SHAPES), 2)[order]
    for behind in (True, False):
        group = (order < kinds) == behind
        shared = R[group & (shapes == "shared")]
        vals = rng.integers(0, 10 ** 7, (shared.size, act.size))
        store.bulk_insert(shared, act, vals)
        dense[np.ix_(shared, act)] = vals
        for j, shape in zip(R[group].tolist(), shapes[group].tolist()):
            if shape == "island":
                dense[j] = store.dense_row(j)[:] = rng.integers(0, 10 ** 7, n)
            elif shape in columns:
                cols = columns[shape]
                dense[j, cols] = vals = rng.integers(0, 10 ** 7, cols.size)
                store.add_compact(j, cols, vals)
        for _ in range(lag if behind else 0):
            store.advance_epoch()
            dense = decay(dense, forgetting[:, None])
    return store, dense, act, R, shapes


def scatter_matches(k: FastAlloc, rng: np.random.Generator, weight: float, **case) -> bool:
    """One :func:`scatter_case` through the native scatter, its ``ok=0``
    receivers through ``add_compact``: the in-place shapes and no others
    report ok, and the store equals the dense fold bit for bit."""
    from ..core.apportion import slot_credit

    store, dense, act, R, shapes = scatter_case(rng, **case)
    M = rng.integers(0, 10 ** 6, (act.size, R.size))
    ok = np.full(R.size, 2, dtype=np.uint8)
    k.sparse_scatter(store, act, R, M, weight, ok)
    if ok.tolist() != [shape in IN_PLACE for shape in shapes.tolist()]:
        return False
    P = slot_credit(M, weight)
    for a in np.flatnonzero(ok == 0).tolist():
        store.add_compact(int(R[a]), act, np.ascontiguousarray(P[:, a]))
    dense[np.ix_(R, act)] += P.T
    return np.array_equal(store.materialize(), dense)


def fold_matches(k: FastAlloc, rng: np.random.Generator, slots: int = 4) -> bool:
    """A native and a numpy :class:`~repro.sim.shard.ClassFold` fed the
    same slots, across the report window's start, end bit-identical."""
    from .shard import ClassFold

    n, classes = 50, 6
    class_of = rng.integers(0, classes, n).astype(np.intp)
    folds = [ClassFold(class_of, classes, slots, kernels) for kernels in (k, None)]
    requesting = rng.random((slots, n)) < 0.4
    rates = rng.random((slots, n)) * 1e3
    req, cap = rng.random((slots, classes)) < 0.5, rng.random((slots, classes)) * 1e3
    for s in range(slots):
        R = np.flatnonzero(requesting[s])
        for fold in folds:
            fold.fold(s, R, rates[s, R], req[s], cap[s])
    got, want = (vars(fold.expand()) for fold in folds)
    return all(np.asarray(got[key]).tobytes() == np.asarray(want[key]).tobytes() for key in want)


def _self_check_sparse(k: FastAlloc) -> bool:
    """Fuzz the sparse-engine kernels — cold and warm Eq. (2) rows
    against the numpy rows, the eq2/eq3 rows with lazy decay against
    the dense reference, the fused scatter over random stores and over
    every receiver shape, the rate fold — demanding zero
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
        k.rows_shared(rowpos, declared[R], caps[act], got)
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

    # Every receiver shape at lag 0 and 2, whole and fractional slots;
    # then the rate fold.
    for weight in (1.0, 7.5):
        if not scatter_matches(k, rng, weight):
            return False
    return fold_matches(k, rng)


def load() -> FastAlloc | None:
    """Compile/load/verify the kernels once; ``None`` means fall back."""
    return native.load("fastalloc", _SOURCE, FastAlloc, _self_check)
