"""Property-based equivalence of the vectorised kernels vs a naive oracle.

The vectorised layer (``addmul``/``scale_rows``/``dot``/``matmul``, the
bit-packed matmul engine, and the blocked ``row_reduce``) must be
*bit-identical* to textbook arithmetic.  The oracle here is deliberately
naive: carryless shift-and-XOR multiplication on Python ints, driven by
``field.modulus`` only, with no shared code paths with the kernels under
test.  Hypothesis sweeps all supported fields, random shapes, and the
zero/singular edge cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import (
    GF,
    SingularMatrixError,
    inv_matrix,
    row_reduce,
    solve,
)
from repro.gf.bitmatmul import bit_matmul
from repro.obs import observability

FIELDS = {p: GF(p) for p in (4, 8, 16, 32)}


# ---------------------------------------------------------------- oracle


def _clmul_reduce(a: int, b: int, p: int, modulus: int) -> int:
    """Carryless multiply then reduce by the field polynomial."""
    acc = 0
    for i in range(p):
        if (b >> i) & 1:
            acc ^= a << i
    for i in range(2 * p - 2, p - 1, -1):
        if (acc >> i) & 1:
            acc ^= modulus << (i - p)
    return acc & ((1 << p) - 1)


def ref_mul(field, a: int, b: int) -> int:
    """Oracle product: clmul for p <= 16, textbook tower rule for p = 32."""
    if field.p <= 16:
        return _clmul_reduce(a, b, field.p, field.modulus)
    # GF(2^32) = GF(2^16)[y] / (y^2 + y + c): multiply the two linear
    # polynomials and reduce y^2 -> y + c over the base field.
    base, c = field.base, int(field.c)
    mask = (1 << 16) - 1
    a0, a1 = a & mask, a >> 16
    b0, b1 = b & mask, b >> 16

    def m(x, y):
        return _clmul_reduce(x, y, 16, base.modulus)

    hh = m(a1, b1)
    hi = m(a1, b0) ^ m(a0, b1) ^ hh
    lo = m(a0, b0) ^ m(c, hh)
    return (hi << 16) | lo


def ref_inv(field, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError
    e = (1 << field.p) - 2  # Fermat: a^(q-2) = a^-1
    result, base = 1, a
    while e:
        if e & 1:
            result = ref_mul(field, result, base)
        base = ref_mul(field, base, base)
        e >>= 1
    return result


def ref_matmul(field, A, B):
    r, n = A.shape
    m = B.shape[1]
    out = np.zeros((r, m), dtype=np.uint64)
    for i in range(r):
        for j in range(m):
            acc = 0
            for t in range(n):
                acc ^= ref_mul(field, int(A[i, t]), int(B[t, j]))
            out[i, j] = acc
    return out.astype(A.dtype)


def ref_row_reduce(field, M):
    """Textbook Gauss-Jordan on a list-of-int-lists copy."""
    A = [[int(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        src = next((i for i in range(pivot_row, rows) if A[i][col]), None)
        if src is None:
            continue
        A[pivot_row], A[src] = A[src], A[pivot_row]
        inv = ref_inv(field, A[pivot_row][col])
        A[pivot_row] = [ref_mul(field, inv, x) for x in A[pivot_row]]
        for i in range(rows):
            if i != pivot_row and A[i][col]:
                f = A[i][col]
                A[i] = [
                    x ^ ref_mul(field, f, y)
                    for x, y in zip(A[i], A[pivot_row])
                ]
        pivot_row += 1
    return np.array(A, dtype=M.dtype), pivot_row


def arrays(data, field, shape, zero_bias=False):
    q = 1 << field.p
    elems = st.integers(min_value=0, max_value=q - 1)
    if zero_bias:
        elems = st.one_of(st.just(0), elems)
    size = int(np.prod(shape))
    flat = data.draw(st.lists(elems, min_size=size, max_size=size))
    return np.array(flat, dtype=field.dtype).reshape(shape)


# ------------------------------------------------------------ properties


@pytest.mark.parametrize("p", sorted(FIELDS))
class TestKernelEquivalence:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_addmul_matches_oracle(self, p, data):
        field = FIELDS[p]
        n = data.draw(st.integers(1, 12))
        y = arrays(data, field, (n,))
        x = arrays(data, field, (n,))
        a = data.draw(st.integers(0, (1 << p) - 1))
        expected = np.array(
            [
                int(yv) ^ ref_mul(field, a, int(xv))
                for yv, xv in zip(y, x)
            ],
            dtype=field.dtype,
        )
        got = field.addmul(y.copy(), field.asarray(a), x)
        assert np.array_equal(got, expected)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_addmul_elementwise_factors(self, p, data):
        field = FIELDS[p]
        rows = data.draw(st.integers(1, 4))
        cols = data.draw(st.integers(1, 6))
        y = arrays(data, field, (rows, cols))
        x = arrays(data, field, (1, cols))
        f = arrays(data, field, (rows, 1), zero_bias=True)
        expected = y.copy()
        for i in range(rows):
            for j in range(cols):
                expected[i, j] ^= ref_mul(field, int(f[i, 0]), int(x[0, j]))
        got = field.addmul(y.copy(), f, x)
        assert np.array_equal(got, expected)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_scale_rows_matches_oracle(self, p, data):
        field = FIELDS[p]
        n = data.draw(st.integers(1, 12))
        rows = arrays(data, field, (n,))
        factor = data.draw(st.integers(0, (1 << p) - 1))
        expected = np.array(
            [ref_mul(field, factor, int(v)) for v in rows],
            dtype=field.dtype,
        )
        buf = rows.copy()
        field.scale_rows(buf, field.asarray(factor))
        assert np.array_equal(buf, expected)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_dot_matches_oracle(self, p, data):
        field = FIELDS[p]
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, 6))
        coeffs = arrays(data, field, (n,), zero_bias=True)
        vectors = arrays(data, field, (n, m))
        expected = ref_matmul(field, coeffs[None, :], vectors)[0]
        assert np.array_equal(field.dot(coeffs, vectors), expected)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matmul_matches_oracle(self, every_backend, p, data):
        field = FIELDS[p]
        r = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 5))
        A = arrays(data, field, (r, n), zero_bias=True)
        B = arrays(data, field, (n, m))
        expected = ref_matmul(field, A, B)
        for name, got in every_backend(lambda: field.matmul(A, B)).items():
            assert np.array_equal(got, expected), name

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_bit_engine_matches_oracle(self, every_backend, p, data):
        """Exercise the packed engine directly, below its size threshold,
        on the compiled kernel and on the numpy body (``conftest.py``)."""
        field = FIELDS[p]
        r = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 70))  # crosses one 64-symbol word
        A = arrays(data, field, (r, n), zero_bias=True)
        B = arrays(data, field, (n, m))
        expected = ref_matmul(field, A, B)
        for name, got in every_backend(lambda: bit_matmul(field, A, B)).items():
            assert np.array_equal(got, expected), name

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_row_reduce_matches_oracle(self, p, data):
        field = FIELDS[p]
        rows = data.draw(st.integers(1, 4))
        cols = data.draw(st.integers(1, 5))
        M = arrays(data, field, (rows, cols), zero_bias=True)
        expected, expected_rank = ref_row_reduce(field, M)
        got, got_rank = row_reduce(field, M)
        assert got_rank == expected_rank
        assert np.array_equal(got, expected)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_solve_matches_oracle(self, p, data):
        field = FIELDS[p]
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 4))
        A = arrays(data, field, (n, n), zero_bias=True)
        B = arrays(data, field, (n, m))
        aug, r = ref_row_reduce(field, np.concatenate([A, B], axis=1))
        identity = np.zeros((n, n), dtype=field.dtype)
        identity[np.arange(n), np.arange(n)] = 1
        singular = r < n or not np.array_equal(aug[:, :n], identity)
        if singular:
            with pytest.raises(SingularMatrixError):
                solve(field, A, B)
        else:
            assert np.array_equal(solve(field, A, B), aug[:, n:])


# ---------------------------------------------------------- edge cases


@pytest.mark.parametrize("p", sorted(FIELDS))
class TestKernelEdgeCases:
    def test_zero_matrix_ops(self, p):
        field = FIELDS[p]
        Z = field.zeros((3, 4))
        assert np.array_equal(field.matmul(Z, field.zeros((4, 5))), field.zeros((3, 5)))
        reduced, r = row_reduce(field, Z)
        assert r == 0 and not reduced.any()
        y = field.zeros(4)
        assert not field.addmul(y, field.asarray(0), field.zeros(4)).any()

    def test_zero_scale(self, p):
        field = FIELDS[p]
        buf = field.asarray(np.arange(1, 5) % (1 << p)).copy()
        field.scale_rows(buf, field.asarray(0))
        assert not buf.any()

    def test_singular_solve_raises(self, p, rng):
        field = FIELDS[p]
        row = field.random_nonzero((4,), rng)
        A = np.stack([row, row, field.random((4,), rng), field.random((4,), rng)])
        with pytest.raises(SingularMatrixError):
            solve(field, A, field.random((4, 3), rng))
        with pytest.raises(SingularMatrixError):
            inv_matrix(field, A)

    def test_wide_solve_shortcut_matches_narrow(self, p, rng):
        """The inv+matmul shortcut (wide RHS) equals the augmented path."""
        from repro.gf.linalg import _solve

        field = FIELDS[p]
        n = 6
        A = field.random((n, n), rng)
        while True:
            try:
                inv_matrix(field, A)
                break
            except SingularMatrixError:
                A = field.random((n, n), rng)
        B = field.random((n, 4096), rng)  # n * 4096 >= 1 << 14 -> shortcut
        wide = _solve(field, A, B)
        narrow = np.column_stack(
            [_solve(field, A, B[:, j]) for j in range(8)]
        )
        assert np.array_equal(wide[:, :8], narrow)

    def test_identical_with_observability_on(self, p, rng):
        field = FIELDS[p]
        A = field.random((5, 5), rng)
        B = field.random((5, 7), rng)
        y = field.random((7,), rng)
        x = field.random((7,), rng)
        a = field.random_nonzero((), rng)
        plain = (
            field.matmul(A, B),
            field.addmul(y.copy(), a, x),
            row_reduce(field, A),
        )
        with observability(reset=True):
            gated = (
                field.matmul(A, B),
                field.addmul(y.copy(), a, x),
                row_reduce(field, A),
            )
        assert np.array_equal(plain[0], gated[0])
        assert np.array_equal(plain[1], gated[1])
        assert np.array_equal(plain[2][0], gated[2][0])
        assert plain[2][1] == gated[2][1]
