"""Linear algebra over ``GF(2^p)``: elimination, rank, inverse, solve.

The decoder of Section III-B multiplies received messages by the inverse
of a ``k x k`` sub-matrix of the coefficient matrix ``beta``; the encoder
"tests generated rows for linear independence" (Section III-A).  Both
reduce to Gauss-Jordan elimination, implemented here with whole-matrix
row updates so the inner loops stay in numpy.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache

import numpy as np

from ..obs import REGISTRY as _OBS
from .field import _DEFAULT_RNG, DTYPE, BinaryField, FieldError

__all__ = [
    "SingularMatrixError",
    "row_reduce",
    "rank",
    "is_invertible",
    "inv_matrix",
    "solve",
    "random_invertible",
    "IncrementalRank",
]


class SingularMatrixError(FieldError):
    """Raised when an inverse or solve is requested for a singular matrix."""


_SOLVE_CALLS = _OBS.counter("repro.gf.solve.calls", "solve() invocations")
_SOLVE_NS = _OBS.histogram("repro.gf.solve.ns", "nanoseconds per solve()")
_ROW_REDUCE_NS = _OBS.histogram(
    "repro.gf.row_reduce.ns", "nanoseconds per row_reduce()"
)


@lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    """Shared read-only ``n x n`` identity (every field uses one dtype).

    Cached because ``inv_matrix``/``solve`` rebuild it on every call in
    the decode loop; callers must copy before mutating (``concatenate``
    already does).
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
    elimination alone — no back-substitution, no scaling of pivot rows —
    and one column loop serves every matrix of the stack: per column a
    pivot search, a row swap, one ``inv`` of the pivots to turn the
    column below them into factors, and one fused update of all the
    trailing blocks.  A matrix with no pivot in some column is singular;
    it stays in the stack (its zero factors change nothing) while the
    others finish.
    """
    A = field.asarray(matrix)  # a private copy: reduced in place below
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        return False
    k = A.shape[-1]
    S = A.reshape(math.prod(A.shape[:-2]), k, k)
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
    return bool(full[0]) if A.ndim == 2 else full.reshape(A.shape[:-2])


def inv_matrix(field: BinaryField, matrix: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix via Gauss-Jordan on ``[A | I]``.

    Raises :class:`SingularMatrixError` when ``A`` is not invertible.
    """
    A = field.asarray(matrix)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise FieldError(f"matrix must be square, got shape {A.shape}")
    n = A.shape[0]
    identity = _identity(n)
    augmented = np.concatenate([A, identity], axis=1)
    reduced, r = row_reduce(field, augmented)
    if r < n or np.any(reduced[:, :n] != identity):
        raise SingularMatrixError(f"matrix of shape {A.shape} is singular")
    return reduced[:, n:].copy()


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
    """

    def __init__(self, field: BinaryField, width: int):
        self.field = field
        self.width = width
        self._rows: list[np.ndarray] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def offer(self, row: np.ndarray) -> bool:
        """Try to add ``row``; return ``True`` iff it increased the rank."""
        field = self.field
        r = field.asarray(row).copy()
        if r.shape != (self.width,):
            raise FieldError(f"expected a row of width {self.width}, got {r.shape}")
        # Kept rows are in echelon form only (never back-substituted), so
        # they must be applied in insertion order: row i is zero at the
        # pivots of rows 0..i-1 and cannot bring back a cleared pivot.
        for kept, pivot in zip(self._rows, self._pivots):
            v = r[pivot]
            if v:
                # Kept rows lead with their pivot, so only the trailing
                # slice can change; fused kernel, no temporaries.
                field.addmul(r[pivot:], v, kept[pivot:])
        nonzero = np.nonzero(r)[0]
        if nonzero.size == 0:
            return False
        pivot = int(nonzero[0])
        lead = int(r[pivot])
        if lead != 1:
            field.scale_rows(r[pivot:], field.inv_scalar(lead))
        self._rows.append(r)
        self._pivots.append(pivot)
        return True
