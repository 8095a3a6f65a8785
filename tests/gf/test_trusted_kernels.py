"""The trusted kernels against per-element ``field.mul``.

``combine``, ``addmul``, ``scale_rows`` and ``inv_scalar`` skip the range
checks of ``mul`` / ``inv``: their operands are arrays the library made
itself.  Here every one of them is compared, element by element, with
the validated product, on every backend and in the operand shapes their
callers pass: the arrival's row slices, ``is_invertible``'s strided
column and stacked blocks, scalar factors of every spelling.
"""

import numpy as np
import pytest

from repro.gf import GF, FieldError
from repro.gf.clmul import ClmulField

FIELDS = {
    "table4": GF(4),
    "table8": GF(8),
    "table16": GF(16),
    "tower32": GF(32),
    "clmul5": ClmulField(5),
    "clmul8": ClmulField(8),
}


@pytest.fixture(params=list(FIELDS), scope="module")
def field(request):
    return FIELDS[request.param]


def elementwise(field, a, x):
    """``a * x`` (broadcast) as one validated ``field.mul`` per element."""
    a, x = np.broadcast_arrays(np.asarray(a), np.asarray(x))
    out = np.empty(a.shape, dtype=field.dtype)
    for index in np.ndindex(a.shape):
        out[index] = field.mul(int(a[index]), int(x[index]))
    return out


def combined(field, coeffs, rows):
    return np.bitwise_xor.reduce(elementwise(field, coeffs[:, None], rows), axis=0)


class TestCombine:
    def test_matches_elementwise(self, field, rng):
        coeffs, rows = field.random(6, rng), field.random((6, 9), rng)
        assert np.array_equal(field.combine(coeffs, rows), combined(field, coeffs, rows))

    def test_zero_coefficients_and_zero_rows(self, field, rng):
        coeffs, rows = field.random_nonzero(5, rng), field.random((5, 7), rng)
        coeffs[[0, 3]] = 0
        rows[1] = 0
        assert np.array_equal(field.combine(coeffs, rows), combined(field, coeffs, rows))
        assert not field.combine(field.zeros(5), rows).any()
        assert not field.combine(coeffs, field.zeros((5, 7))).any()

    def test_one_row_and_no_rows(self, field, rng):
        coeffs, rows = field.random_nonzero(1, rng), field.random((1, 11), rng)
        assert np.array_equal(field.combine(coeffs, rows), combined(field, coeffs, rows))
        empty = field.combine(field.zeros(0), field.zeros((0, 4)))
        assert empty.dtype == field.dtype and empty.tolist() == [0, 0, 0, 0]

    def test_operands_as_the_decoder_passes_them(self, field, rng):
        """Factors gathered off the work row, kept rows a leading block of
        a bigger matrix, the ``t`` part a slice of the row."""
        k, rank = 6, 4
        reduced = field.random((k, 2 * k), rng)
        pivots = np.array([5, 0, 3, 1, 0, 0], dtype=np.intp)
        row, kept = reduced[rank], reduced[:rank]
        factors = row.take(pivots[:rank])
        assert np.array_equal(field.combine(factors, kept), combined(field, factors, kept))
        payloads = field.random((k, 10), rng)
        t = row[k : k + rank]
        assert np.array_equal(
            field.combine(t, payloads[:rank]), combined(field, t, payloads[:rank])
        )

    def test_result_is_a_fresh_array(self, field, rng):
        coeffs, rows = field.random_nonzero(1, rng), field.random((1, 5), rng)
        coeffs[0] = 1
        out = field.combine(coeffs, rows)
        assert np.array_equal(out, rows[0]) and not np.shares_memory(out, rows)

    def test_row_blocks_agree_with_one_product(self, field, rng):
        """Wide operands are reduced a few rows at a time (here 3, 3, 1)."""
        coeffs, rows = field.random(7, rng), field.random((7, 5000), rng)
        coeffs[2] = 0
        whole = np.bitwise_xor.reduce(field.mul(coeffs[:, None], rows), axis=0)
        assert np.array_equal(field.combine(coeffs, rows), whole)

    def test_dot_is_the_validated_wrapper(self, field, rng):
        coeffs, rows = field.random(4, rng), field.random((4, 6), rng)
        assert np.array_equal(field.dot(coeffs.tolist(), rows), field.combine(coeffs, rows))
        with pytest.raises(FieldError):
            field.dot([field.q], rows[:1])
        with pytest.raises(FieldError):
            field.dot(coeffs[:3], rows)


class TestAddmul:
    def test_row_slice_and_scalar_factor(self, field, rng):
        """A row slice and a scalar factor: ``addmul(r[pivot:], v, kept[pivot:])``."""
        r, kept = field.random(12, rng), field.random(12, rng)
        v = int(field.random_nonzero((), rng))
        expected = r.copy()
        expected[3:] ^= elementwise(field, v, kept[3:])
        field.addmul(r[3:], v, kept[3:])
        assert np.array_equal(r, expected)

    def test_scalar_factor_spellings(self, field, rng):
        """A Python int, a numpy scalar and a 0-d array are one factor."""
        x, y = field.random(9, rng), field.random(9, rng)
        for v in (0, 1, int(field.random_nonzero((), rng))):
            expected = y ^ elementwise(field, v, x)
            for factor in (v, field.dtype(v), np.asarray(v, dtype=field.dtype)):
                assert np.array_equal(field.addmul(y.copy(), factor, x), expected)
                assert np.array_equal(field.scale_rows(x.copy(), factor), expected ^ y)

    def test_column_of_factors_times_one_row(self, field, rng):
        """The back-elimination: ``addmul(kept, f[:, None], row)`` with and
        without the ``[None, :]``, ``kept`` a leading block."""
        reduced = field.random((6, 10), rng)
        kept, row = reduced[:4], reduced[4]
        factors = kept[:, 2].copy()
        factors[1] = 0
        expected = kept ^ elementwise(field, factors[:, None], row[None, :])
        for operand in (row, row[None, :]):
            block = reduced.copy()
            field.addmul(block[:4], factors[:, None], operand)
            assert np.array_equal(block[:4], expected)
            assert np.array_equal(block[4:], reduced[4:])

    def test_trailing_submatrix_of_row_reduce(self, field, rng):
        A = field.random((5, 8), rng)
        col, pivot_row = 3, 1
        factors = A[:, col].copy()
        factors[pivot_row] = 0
        expected = A.copy()
        expected[:, col:] ^= elementwise(field, factors[:, None], A[pivot_row, col:][None, :])
        field.addmul(A[:, col:], factors[:, None], A[pivot_row, col:][None, :])
        assert np.array_equal(A, expected)

    def test_stacked_blocks_of_is_invertible(self, field, rng):
        """``(B, r, w)`` trailing blocks, a strided column as factors."""
        S = field.random((3, 5, 5), rng)
        S[1, 2:, 1] = 0  # one matrix with nothing to clear
        c = 1
        factors = S[:, c + 1 :, c]
        expected = S.copy()
        expected[:, c + 1 :, c + 1 :] ^= elementwise(
            field, factors[:, :, None], S[:, c, None, c + 1 :]
        )
        field.addmul(S[:, c + 1 :, c + 1 :], factors[:, :, None], S[:, c, None, c + 1 :])
        assert np.array_equal(S, expected)


class TestScaleRows:
    def test_row_slice_by_a_python_int(self, field, rng):
        row = field.random(10, rng)
        v = field.inv_scalar(int(field.random_nonzero((), rng)))
        assert isinstance(v, int)
        expected = row.copy()
        expected[4:] = elementwise(field, v, row[4:])
        field.scale_rows(row[4:], v)
        assert np.array_equal(row, expected)

    def test_strided_column_by_a_column_of_inverses(self, field, rng):
        """``is_invertible``: ``scale_rows(S[:, c+1:, c], inv(pivots)[:, None])``."""
        S = field.random((4, 5, 5), rng)
        c = 2
        inverses = field.inv(field.random_nonzero(4, rng))
        expected = S.copy()
        expected[:, c + 1 :, c] = elementwise(field, inverses[:, None], S[:, c + 1 :, c])
        field.scale_rows(S[:, c + 1 :, c], inverses[:, None])
        assert np.array_equal(S, expected)

    def test_factors_aliasing_the_rows(self, field, rng):
        """Every row by its own first element, read from the block being
        written: the product is complete before anything is stored."""
        A = field.random((4, 6), rng)
        expected = elementwise(field, A[:, :1].copy(), A)
        field.scale_rows(A, A[:, :1])
        assert np.array_equal(A, expected)

    def test_zero_and_one(self, field, rng):
        rows = field.random((3, 4), rng)
        before = rows.copy()
        assert np.array_equal(field.scale_rows(rows, 1), before)
        assert not field.scale_rows(rows, np.asarray(0, dtype=field.dtype)).any()


class TestInvScalar:
    def test_matches_inv(self, field, rng):
        elements = range(1, field.q) if field.p <= 8 else field.random_nonzero(200, rng).tolist()
        for a in elements:
            v = field.inv_scalar(a)
            assert isinstance(v, int) and v == int(field.inv(a))
        assert field.inv_scalar(1) == 1

    def test_zero_raises(self, field):
        with pytest.raises(FieldError):
            field.inv_scalar(0)


class TestValidatedApiStillValidates:
    def test_mul_rejects_out_of_range(self, field):
        for a, b in (([field.q], [1]), ([1], [field.q]), (field.q, 1)):
            with pytest.raises(FieldError):
                field.mul(np.asarray(a, dtype=np.uint64), b)

    def test_inv_rejects_zero_and_out_of_range(self, field):
        with pytest.raises(FieldError):
            field.inv(np.array([1, 0], dtype=np.uint32))
        with pytest.raises(FieldError):
            field.inv(np.array([field.q], dtype=np.uint64))
