"""Linear algebra over ``GF(2^p)``: elimination, rank, inverse, solve.

The decoder of Section III-B multiplies received messages by the inverse
of a ``k x k`` sub-matrix of the coefficient matrix ``beta``; the encoder
"tests generated rows for linear independence" (Section III-A).  Both
reduce to Gauss-Jordan elimination, implemented here with whole-matrix
row updates so the inner loops stay in numpy.

The two eliminations on the hot paths — the encoder's screening
(:func:`is_invertible`) and the progressive decoder's arrival step
(:func:`arrival_step`, which :func:`inv_matrix` also runs) — also run in
``_gfmul.c`` whenever the field is a :class:`TableField` (``p <= 16``,
with its own log/antilog tables) or the :class:`TowerField` (``p = 32``,
with its base ``GF(2^16)``'s) and :func:`repro.gf.bitmatmul.load` has
the library live.  The numpy bodies below stay the fallback and the
oracle the library's self-check fuzzes those steps against.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from functools import lru_cache, partial

import numpy as np

from ..obs import REGISTRY as _OBS
from . import bitmatmul
from .field import _DEFAULT_RNG, DTYPE, GF, BinaryField, FieldError
from .tower import TowerField

__all__ = [
    "SingularMatrixError",
    "row_reduce",
    "rank",
    "is_invertible",
    "inv_matrix",
    "solve",
    "random_invertible",
    "IncrementalRank",
    "eliminate_arrival",
    "arrival_step",
]


class SingularMatrixError(FieldError):
    """Raised when an inverse or solve is requested for a singular matrix."""


_SOLVE_CALLS = _OBS.counter("repro.gf.solve.calls", "solve() invocations")
_SOLVE_NS = _OBS.histogram("repro.gf.solve.ns", "nanoseconds per solve()")
_ROW_REDUCE_NS = _OBS.histogram(
    "repro.gf.row_reduce.ns", "nanoseconds per row_reduce()"
)
_ELIM_NATIVE = _OBS.counter(
    "repro.gf.eliminate.native",
    "screening and arrival eliminations that ran in the compiled kernel "
    "(the rest ran in numpy)",
)


#: The compiled kernel when it serves a field, and that field's tables.
_compiled, _tables = bitmatmul.compiled, bitmatmul.tables


@lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    """Shared read-only ``n x n`` identity (every field uses one dtype).

    Cached because ``solve`` rebuilds it on every call in the decode
    loop; callers must copy before mutating (``concatenate`` already
    does).
    """
    eye = np.zeros((n, n), dtype=DTYPE)
    eye[np.arange(n), np.arange(n)] = 1
    eye.flags.writeable = False
    return eye


def row_reduce(field: BinaryField, matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """Return the reduced row-echelon form of ``matrix`` and its rank.

    The input is not modified.  Works for any rectangular shape.
    """
    start = time.perf_counter_ns() if _OBS.enabled else None
    out = _row_reduce(field, matrix)
    if start is not None:
        _ROW_REDUCE_NS.observe(time.perf_counter_ns() - start)
    return out


def _row_reduce(field: BinaryField, matrix: np.ndarray) -> tuple[np.ndarray, int]:
    A = field.asarray(matrix).copy()
    if A.ndim != 2:
        raise FieldError(f"expected a 2-D matrix, got shape {A.shape}")
    rows, cols = A.shape
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        nonzero = np.nonzero(A[pivot_row:, col])[0]
        if nonzero.size == 0:
            continue
        src = pivot_row + int(nonzero[0])
        if src != pivot_row:
            A[[pivot_row, src]] = A[[src, pivot_row]]
        pivot = int(A[pivot_row, col])
        if pivot != 1:
            field.scale_rows(A[pivot_row, col:], field.inv_scalar(pivot))
        factors = A[:, col].copy()
        factors[pivot_row] = 0
        if factors.any():
            # One fused kernel op updates the whole trailing submatrix
            # (columns left of the pivot are already reduced to zero,
            # and zero factors multiply to zero in the kernel).
            field.addmul(A[:, col:], factors[:, None], A[pivot_row, col:][None, :])
        pivot_row += 1
    return A, pivot_row


def rank(field: BinaryField, matrix: np.ndarray) -> int:
    """Rank of ``matrix`` over the field."""
    _, r = row_reduce(field, matrix)
    return r


def is_invertible(field: BinaryField, matrix: np.ndarray) -> bool | np.ndarray:
    """Whether square matrices have full rank over the field.

    ``matrix`` is one ``(k, k)`` matrix (the answer is a ``bool``) or a
    stack ``(..., k, k)`` (a bool array of shape ``matrix.shape[:-2]``);
    anything that is not square in its last two axes is not invertible.

    Only the verdict is wanted, so the stack is reduced by forward
    elimination alone — no back-substitution, no scaling of pivot rows.
    A table field's or the tower's stack is reduced in ``_gfmul.c`` when
    the library is live, block by block; otherwise by
    :func:`_full_rank_numpy`.
    """
    A = field.asarray(matrix)  # a private copy: reduced in place below
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        return False if A.ndim <= 2 else np.zeros(A.shape[:-2], dtype=bool)
    k = A.shape[-1]
    S = A.reshape(math.prod(A.shape[:-2]), k, k)
    kernel = _compiled(field)
    if kernel is None:
        full = _full_rank_numpy(field, S)
    else:
        if _OBS.enabled:
            _ELIM_NATIVE.inc()
        full = kernel.full_rank(S, *bitmatmul.bound_tables(field))
    return bool(full[0]) if A.ndim == 2 else full.reshape(A.shape[:-2])


def _full_rank_numpy(field: BinaryField, S: np.ndarray) -> np.ndarray:
    """Full-rank verdicts of the ``(B, k, k)`` stack ``S``, reduced in place.

    One column loop serves every matrix of the stack: per column a pivot
    search, a row swap, one ``inv`` of the pivots to turn the column
    below them into factors, and one fused update of all the trailing
    blocks.  A matrix with no pivot in some column is singular; it stays
    in the stack (its zero factors change nothing) while the others
    finish.
    """
    k = S.shape[-1]
    full = np.ones(S.shape[0], dtype=bool)
    for col in range(k):
        first = (S[:, col:, col] != 0).argmax(axis=1)  # 0 if the column is zero
        if first.any():
            swap = np.flatnonzero(first)
            src = col + first[swap]
            S[swap, col, col:], S[swap, src, col:] = S[swap, src, col:], S[swap, col, col:]
        pivots = S[:, col, col]
        found = pivots != 0
        if not found.all():
            full &= found
            if not full.any():
                break
            # inv() raises on zero; below a missing pivot the column is
            # zero, so whatever stands in for it moves nothing.
            pivots = np.where(found, pivots, DTYPE(1))
        if col + 1 < k:
            factors = S[:, col + 1 :, col]
            field.scale_rows(factors, field.inv(pivots)[:, None])
            field.addmul(
                S[:, col + 1 :, col + 1 :],
                factors[:, :, None],
                S[:, col, None, col + 1 :],
            )
    return full


def eliminate_arrival(
    field: BinaryField, reduced: np.ndarray, pivots: np.ndarray, rank: int
) -> int:
    """One arrival of the progressive decoder, in numpy.

    ``reduced`` is the decoder's ``(k, 2k)`` matrix of rows ``[e | t]``:
    rows ``[0, rank)`` are kept, their ``e`` parts in reduced row echelon
    form (1 at ``pivots[i]`` in row ``i``, 0 at every other kept pivot);
    row ``rank`` is the arrival ``[beta | 0]``.  The arrival is reduced
    against the kept rows.  If its ``e`` part cancels, ``-1`` is returned
    and its ``t`` part (columns ``k`` to ``k + rank``) says which
    combination of the kept raw rows it equals.  Otherwise its pivot — the
    first non-zero column of ``e`` — is returned, after the arrival's
    ``t`` got its unit at ``k + rank``, the row was scaled to 1 at the
    pivot and the pivot column was cleared from the kept rows.  The
    caller records the pivot and the rank.
    """
    k = reduced.shape[0]
    row, kept = reduced[rank], reduced[:rank]
    # Kept rows are fully reduced, so all factors can be read off the
    # arrival at once and one product clears them.
    factors = row.take(pivots[:rank])
    if factors.any():
        row ^= field.combine(factors, kept)
    nonzero = row[:k].nonzero()[0]
    if nonzero.size == 0:
        return -1
    pivot = int(nonzero[0])
    row[k + rank] = 1  # the new raw row enters its own combination
    v = int(row[pivot])
    if v != 1:
        field.scale_rows(row[pivot:], field.inv_scalar(v))
    # Keep the kept rows reduced: clear the new pivot from them.
    factors = kept[:, pivot].copy()
    if factors.any():
        field.addmul(kept, factors[:, None], row)
    return pivot


def arrival_step(
    field: BinaryField,
) -> Callable[[np.ndarray, np.ndarray], Callable[[int], int]]:
    """How a decoder over ``field`` eliminates its arrivals, chosen once:
    ``bind(reduced, pivots)`` returns ``step(rank)``, which is
    ``eliminate_arrival(field, reduced, pivots, rank)`` — run in
    ``_gfmul.c`` for a table field or the tower when the library is live."""
    kernel = _compiled(field)
    if kernel is None:
        return partial(partial, eliminate_arrival, field)
    logz, expz, c = bitmatmul.bound_tables(field)

    def bind(reduced: np.ndarray, pivots: np.ndarray) -> Callable[[int], int]:
        compiled = kernel.arrival_step(logz, expz, reduced, pivots, c)

        def step(rank: int) -> int:
            if _OBS.enabled:
                _ELIM_NATIVE.inc()
            return compiled(rank)

        return step

    return bind


def _elimination_agrees(kernel: bitmatmul.GF2Kernel, tower: TowerField | None = None) -> bool:
    """Fuzz the compiled screening and arrival steps against
    :func:`_full_rank_numpy` and :func:`eliminate_arrival` at p = 4, 8,
    16 and 32, demanding identical verdicts, pivots and rows.

    Screening stacks at k = 0, 1, 2 and 11 hold random blocks and blocks
    made singular by a repeated row (a zero at k = 1) and by a zero
    column.  Arrival streams run to rank k at k = 1, 2 and 7 and mix
    fresh rows with repeats, combinations of earlier rows and a zero row
    — the states a decoder can reach.  One-row arrivals lead with each
    non-zero element of GF(2^4), and with tower elements whose halves
    are zero or equal (the norm map's edge cases), which also make up
    three in eight of the tower's random elements.  About 15 ms, most of
    it the tower's numpy bodies: the tests sweep larger k.
    """
    rng = np.random.default_rng(0xE11A)
    # A private tower, whose base is the GF(2^16) of the p = 16 cells:
    # the cached fields would stay resident (2.3 MiB of tables) in every
    # process that loads the library and never uses them.
    tower = tower or TowerField()

    def draw(field: BinaryField, shape) -> np.ndarray:
        x = field.random(shape, rng)
        if field is tower:
            kind = rng.integers(8, size=x.shape)
            x[kind == 0] &= DTYPE(0xFFFF)  # a1 = 0
            x[kind == 1] &= DTYPE(0xFFFF0000)  # a0 = 0
            x[kind == 2] = (x[kind == 2] >> DTYPE(16)) * DTYPE(0x10001)  # a0 = a1
        return x

    def leads_agree(field: BinaryField, leads) -> bool:
        """A one-row arrival leading with each of ``leads``: normalising
        must not depend on the value."""
        reduced, mine = np.zeros((2, 1, 2), dtype=DTYPE)
        pivots = np.zeros(1, dtype=np.intp)
        logz, expz, c = _tables(field)
        compiled = kernel.arrival_step(logz, expz, mine, pivots, c)
        for lead in leads:
            reduced[0], mine[0] = (lead, 0), (lead, 0)
            want = eliminate_arrival(field, reduced, pivots, 0)
            if compiled(0) != want or (mine != reduced).any():
                return False
        return True

    for field in (GF(4), GF(8), tower.base, tower):
        logz, expz, c = _tables(field)
        for count, k in ((1, 0), (3, 1), (4, 2), (4, 11)):
            blocks = draw(field, (count, k, k))
            if k:
                blocks[0, -1] = blocks[0, 0]  # a repeated row (a zero at k = 1)
                blocks[1, :, k // 2] = 0  # a zero column
            want = _full_rank_numpy(field, blocks.copy())
            if kernel.full_rank(blocks, logz, expz, c).tolist() != want.tolist():
                return False
        for k in (1, 2, 7):
            reduced, mine = np.zeros((2, k, 2 * k), dtype=DTYPE)
            pivots = np.zeros(k, dtype=np.intp)
            compiled = kernel.arrival_step(logz, expz, mine, pivots, c)
            rank, sent = 0, [field.zeros(k)]
            for turn in range(4 * k + 8):
                if rank == k:
                    break
                kind = turn % 4
                if kind == 1:  # a repeat
                    coeffs = sent[int(rng.integers(len(sent)))]
                elif kind == 2:  # in the span of what came before
                    coeffs = field.combine(draw(field, len(sent)), np.stack(sent))
                else:  # fresh, or the zero row once
                    coeffs = draw(field, k) if turn != 3 else field.zeros(k)
                sent.append(coeffs)
                reduced[rank, :k], reduced[rank, k:] = coeffs, 0
                mine[rank] = reduced[rank]
                want = eliminate_arrival(field, reduced, pivots, rank)
                if compiled(rank) != want or mine.tobytes() != reduced.tobytes():
                    return False
                if want >= 0:
                    pivots[rank], rank = want, rank + 1
    halves = rng.integers(2, 1 << 16, size=2, dtype=DTYPE)
    edges = [h * DTYPE(m) for h in (1, *halves) for m in (1, 1 << 16, 0x10001)]
    return leads_agree(GF(4), range(1, 16)) and leads_agree(tower, edges)


def inv_matrix(field: BinaryField, matrix: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix: its rows arrive, one
    :func:`arrival_step` each, as a progressive decoder's do.

    After ``n`` innovative arrivals of ``[A | 0]`` every kept ``e`` part
    is the unit vector at its pivot, so the ``t`` parts are the rows of
    ``A^-1`` in pivot order — what ``ProgressiveDecoder.result`` reads.
    Raises :class:`SingularMatrixError` at the first dependent row.
    """
    A = field.asarray(matrix)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise FieldError(f"matrix must be square, got shape {A.shape}")
    n = A.shape[0]
    reduced = np.zeros((n, 2 * n), dtype=DTYPE)
    reduced[:, :n] = A
    pivots = np.empty(n, dtype=np.intp)
    step = arrival_step(field)(reduced, pivots)
    for rank in range(n):
        pivots[rank] = step(rank)
        if pivots[rank] < 0:
            raise SingularMatrixError(f"matrix of shape {A.shape} is singular")
    inverse = np.empty((n, n), dtype=DTYPE)
    inverse[pivots] = reduced[:, n:]
    return inverse


def solve(field: BinaryField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``A @ X = B`` over the field for square invertible ``A``.

    ``B`` may be a vector (``(n,)``) or a matrix (``(n, m)``); the result
    matches its shape.  This is exactly the decoding step of the paper:
    ``A`` is the coefficient sub-matrix, ``B`` the stacked payloads.
    """
    start = None
    if _OBS.enabled:
        _SOLVE_CALLS.inc()
        start = time.perf_counter_ns()
    X = _solve(field, A, B)
    if start is not None:
        _SOLVE_NS.observe(time.perf_counter_ns() - start)
    return X


def _solve(field: BinaryField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    A = field.asarray(A)
    B = field.asarray(B)
    vector_rhs = B.ndim == 1
    if vector_rhs:
        B = B[:, None]
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != B.shape[0]:
        raise FieldError(f"shape mismatch for solve: {A.shape} vs {B.shape}")
    n = A.shape[0]
    if B.shape[1] >= n and n * B.shape[1] >= (1 << 14):
        # Wide right-hand side (the decode shape: tiny coefficient
        # matrix, megabyte payload block): invert the small matrix and
        # do one engine matmul instead of reducing the huge augmented
        # matrix.  ``A^-1 B`` is the unique solution either way, so the
        # result is bit-identical to the augmented path.
        try:
            A_inv = inv_matrix(field, A)
        except SingularMatrixError as exc:
            raise SingularMatrixError("coefficient matrix is singular") from exc
        X = field.matmul(A_inv, B)
        return X[:, 0].copy() if vector_rhs else X
    augmented = np.concatenate([A, B], axis=1)
    reduced, r = row_reduce(field, augmented)
    identity = _identity(n)
    if r < n or np.any(reduced[:, :n] != identity):
        raise SingularMatrixError("coefficient matrix is singular")
    X = reduced[:, n:]
    return X[:, 0].copy() if vector_rhs else X.copy()


def random_invertible(
    field: BinaryField, n: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Sample a uniformly random matrix, retrying until invertible.

    Over ``GF(q)`` a random square matrix is invertible with probability
    ``prod_i (1 - q^-i) > 1 - 2/q``, so the expected retry count is tiny
    for every field the paper considers.  Without an explicit ``rng``
    the field layer's shared seeded generator is used, keeping runs
    replayable.
    """
    rng = rng if rng is not None else _DEFAULT_RNG
    while True:
        candidate = field.random((n, n), rng)
        if is_invertible(field, candidate):
            return candidate


class IncrementalRank:
    """Online Gaussian elimination for streaming decode.

    Rows arrive one at a time (one per received message); each is reduced
    against the rows already kept.  Dependent rows are rejected so the
    consumer knows to fetch another message — this is how the downloader
    detects that it has ``k`` *useful* messages (Section III-B) without
    waiting for the transfer to end.

    An offer is one :func:`arrival_step` on a ``(width, 2 width)``
    matrix whose kept rows stay fully reduced (its ``t`` half goes
    unread): compiled for a table field or the tower when the library is
    live, :func:`eliminate_arrival` in numpy otherwise.
    """

    def __init__(self, field: BinaryField, width: int):
        self.field = field
        self.width = width
        #: Rows kept so far.
        self.rank = 0
        # Zeroed pages stay untouched until a row is kept there.
        self._reduced = np.zeros((width, 2 * width), dtype=DTYPE)
        self._pivots = np.zeros(width, dtype=np.intp)
        self._step = arrival_step(field)(self._reduced, self._pivots)

    def offer(self, row: np.ndarray) -> bool:
        """Try to add ``row``; return ``True`` iff it increased the rank."""
        r = self.field.asarray(row)
        if r.shape != (self.width,):
            raise FieldError(f"expected a row of width {self.width}, got {r.shape}")
        rank = self.rank
        if rank == self.width:
            return False
        work = self._reduced[rank]
        work[: self.width], work[self.width :] = r, 0
        pivot = self._step(rank)
        if pivot < 0:
            return False
        self._pivots[rank] = pivot
        self.rank += 1
        return True
