"""Unit tests for Gauss-Jordan elimination, inversion, solve and the
incremental rank tracker."""

import numpy as np
import pytest

from repro.gf import (
    GF,
    ClmulField,
    FieldError,
    IncrementalRank,
    SingularMatrixError,
    inv_matrix,
    is_invertible,
    random_invertible,
    rank,
    row_reduce,
    solve,
)


def identity(field, n):
    eye = field.zeros((n, n))
    eye[np.arange(n), np.arange(n)] = 1
    return eye


class TestRowReduce:
    def test_identity_is_fixed_point(self, field):
        eye = identity(field, 5)
        reduced, r = row_reduce(field, eye)
        assert r == 5
        assert np.array_equal(reduced, eye)

    def test_zero_matrix(self, field):
        reduced, r = row_reduce(field, field.zeros((3, 4)))
        assert r == 0
        assert np.all(reduced == 0)

    def test_input_not_modified(self, field, rng):
        A = field.random((4, 4), rng)
        original = A.copy()
        row_reduce(field, A)
        assert np.array_equal(A, original)

    def test_duplicated_rows_lose_rank(self, field, rng):
        A = field.random((3, 5), rng)
        stacked = np.vstack([A, A])
        assert rank(field, stacked) == rank(field, A)

    def test_rectangular_wide_and_tall(self, field, rng):
        wide = field.random((3, 10), rng)
        tall = field.random((10, 3), rng)
        assert rank(field, wide) <= 3
        assert rank(field, tall) <= 3

    def test_rejects_non_2d(self, field):
        with pytest.raises(FieldError):
            row_reduce(field, field.zeros(4))
        with pytest.raises(FieldError):  # a stack is is_invertible's alone
            row_reduce(field, field.zeros((2, 3, 3)))
        assert is_invertible(field, field.ones(4)) is False


class TestRank:
    def test_linear_combination_rows(self, field_fast, rng):
        F = field_fast
        A = F.random((3, 6), rng)
        while rank(F, A) < 3:
            A = F.random((3, 6), rng)
        combo = F.mul(np.uint32(3 % F.q), A[0]) ^ A[1]
        B = np.vstack([A, combo[None, :]])
        assert rank(F, B) == 3

    def test_random_square_full_rank_whp(self, field_fast, rng):
        # For q >= 256 a random 8x8 is invertible with prob > 0.99.
        F = field_fast
        full = sum(rank(F, F.random((8, 8), rng)) == 8 for _ in range(20))
        assert full >= 18


class TestInverse:
    def test_roundtrip(self, field, rng):
        A = random_invertible(field, 7, rng)
        Ainv = inv_matrix(field, A)
        assert np.array_equal(field.matmul(A, Ainv), identity(field, 7))
        assert np.array_equal(field.matmul(Ainv, A), identity(field, 7))

    def test_inverse_of_identity(self, field):
        eye = identity(field, 4)
        assert np.array_equal(inv_matrix(field, eye), eye)

    def test_singular_raises(self, field):
        singular = field.zeros((3, 3))
        singular[0, 0] = 1
        with pytest.raises(SingularMatrixError):
            inv_matrix(field, singular)

    def test_non_square_raises(self, field, rng):
        with pytest.raises(FieldError):
            inv_matrix(field, field.random((2, 3), rng))

    def test_1x1(self, field):
        A = field.asarray([[3 % field.q or 1]])
        Ainv = inv_matrix(field, A)
        assert field.mul(A[0, 0], Ainv[0, 0]) == 1


class TestSolve:
    def test_vector_rhs(self, field, rng):
        A = random_invertible(field, 6, rng)
        x = field.random(6, rng)
        b = field.matmul(A, x[:, None])[:, 0]
        assert np.array_equal(solve(field, A, b), x)

    def test_matrix_rhs(self, field, rng):
        A = random_invertible(field, 6, rng)
        X = field.random((6, 9), rng)
        B = field.matmul(A, X)
        assert np.array_equal(solve(field, A, B), X)

    def test_singular_raises(self, field):
        with pytest.raises(SingularMatrixError):
            solve(field, field.zeros((2, 2)), field.zeros(2))

    def test_shape_mismatch(self, field, rng):
        A = random_invertible(field, 3, rng)
        with pytest.raises(FieldError):
            solve(field, A, field.zeros(4))


STACK_FIELDS = {
    "table4": lambda: GF(4),
    "table8": lambda: GF(8),
    "table16": lambda: GF(16),
    "tower32": lambda: GF(32),
    "clmul5": lambda: ClmulField(5),
    "clmul8": lambda: GF(8, "clmul"),
}


def plant(field, block, kind):
    """Make an invertible ``block`` (k >= 2) singular, or force a swap."""
    k = block.shape[0]
    if kind == "duplicate row":
        block[k - 1] = block[0]
    elif kind == "zero row":
        block[k // 2] = 0
    elif kind == "zero column":
        block[:, k // 2] = 0
    else:  # a zero on the diagonal with a pivot below it: still invertible
        block[:] = identity(field, k)
        block[[0, k - 1]] = block[[k - 1, 0]]


class TestIsInvertible:
    def test_detects(self, field, rng):
        assert is_invertible(field, random_invertible(field, 5, rng)) is True
        assert is_invertible(field, field.zeros((5, 5))) is False
        assert is_invertible(field, field.random((3, 4), rng)) is False
        assert is_invertible(field, field.random((2, 3, 4), rng)).tolist() == [False, False]
        stack = np.stack([random_invertible(field, 5, rng), field.zeros((5, 5))])
        assert is_invertible(field, stack).tolist() == [True, False]

    @pytest.mark.parametrize("name", STACK_FIELDS)
    def test_stack_equals_rank_per_block(self, name, rng):
        """Every position of the stack holds each kind of planted block in
        turn; the verdicts are ``rank() == k`` block by block."""
        F = STACK_FIELDS[name]()
        for k in range(1, 10):
            stack = np.stack([random_invertible(F, k, rng) for _ in range(4)])
            cases = [(None, None)]
            if k >= 2:
                cases = [
                    (pos, kind)
                    for pos in range(4)
                    for kind in ("duplicate row", "zero row", "zero column", "swap")
                ]
            for pos, kind in cases:
                S = stack.copy()
                if kind is not None:
                    plant(F, S[pos], kind)
                before = S.copy()
                verdicts = is_invertible(F, S)
                want = [rank(F, block) == k for block in S]
                assert verdicts.dtype == bool and verdicts.tolist() == want, (k, pos, kind)
                assert kind is None or want[pos] == (kind == "swap")
                assert np.array_equal(S, before)  # input never modified

    def test_shapes(self, field_fast, rng):
        F = field_fast
        S = F.random((2, 3, 4, 4), rng)
        S[1, 2, 0] = S[1, 2, 1]
        verdicts = is_invertible(F, S)
        assert verdicts.shape == (2, 3)
        assert verdicts.tolist() == [[rank(F, b) == 4 for b in row] for row in S]
        one = is_invertible(F, S[1, 2:])  # a stack of one is the 2-D call
        assert one.shape == (1,) and one[0] == is_invertible(F, S[1, 2]) == False  # noqa: E712
        empty = is_invertible(F, F.zeros((0, 4, 4)))
        assert empty.shape == (0,) and empty.dtype == bool
        assert is_invertible(F, F.zeros((0, 0))) is True  # rank 0 of 0, as rank() says

    def test_whole_stack_singular(self, field_fast):
        assert not is_invertible(field_fast, field_fast.zeros((3, 6, 6))).any()


class TestIncrementalRank:
    def test_matches_batch_rank(self, field_fast, rng):
        F = field_fast
        A = F.random((10, 6), rng)
        inc = IncrementalRank(F, 6)
        for row in A:
            inc.offer(row)
        assert inc.rank == rank(F, A)

    def test_rejects_dependent_rows(self, field, rng):
        F = field
        base = F.random(8, rng)
        inc = IncrementalRank(F, 8)
        assert inc.offer(base)
        assert not inc.offer(base)  # identical
        scaled = F.mul(np.uint32(2 % F.q or 1), base)
        if not np.array_equal(scaled, base):
            assert not inc.offer(scaled)  # scalar multiple

    def test_zero_row_rejected(self, field):
        inc = IncrementalRank(field, 5)
        assert not inc.offer(field.zeros(5))
        assert inc.rank == 0

    def test_wrong_width_raises(self, field):
        inc = IncrementalRank(field, 5)
        with pytest.raises(FieldError):
            inc.offer(field.zeros(4))

    def test_rank_caps_at_width(self, field_fast, rng):
        F = field_fast
        inc = IncrementalRank(F, 4)
        added = sum(inc.offer(F.random(4, rng)) for _ in range(50))
        assert inc.rank == 4
        assert added == 4


class TestRandomInvertible:
    def test_always_invertible(self, field_fast, rng):
        for n in (1, 2, 5):
            A = random_invertible(field_fast, n, rng)
            assert is_invertible(field_fast, A)
