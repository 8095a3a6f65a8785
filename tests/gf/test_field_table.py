"""Unit tests for the table-based fields and the shared field interface."""

import numpy as np
import pytest

from repro.gf import GF, ClmulField, FieldError, TableField
from repro.gf.field import DTYPE


def _power_loop(p, modulus):
    """``(exp, log)`` built one power of x at a time, or ``None`` when x
    does not run through every non-zero element (the modulus is not
    primitive)."""
    q = 1 << p
    exp, log = np.zeros(2 * (q - 1), dtype=DTYPE), np.zeros(q, dtype=DTYPE)
    x = 1
    for i in range(q - 1):
        if x == 0 or (i > 0 and x == 1):
            return None
        exp[i], log[x] = x, i
        x <<= 1
        if x & q:
            x ^= modulus
    if x != 1:
        return None
    exp[q - 1 :] = exp[: q - 1]
    return exp, log


class TestConstruction:
    def test_gf_factory_caches(self):
        assert GF(8) is GF(8)
        assert GF(8) is not GF(4)

    def test_backend_selection(self):
        assert isinstance(GF(4), TableField)
        assert isinstance(GF(16), TableField)
        assert type(GF(32)).__name__ == "TowerField"
        assert isinstance(GF(8, impl="clmul"), ClmulField)

    def test_table_field_rejects_large_p(self):
        with pytest.raises(FieldError):
            TableField(20)

    def test_rejects_non_primitive_modulus(self):
        # x^8+x^4+x^3+x+1 (AES) is irreducible but not primitive.
        with pytest.raises(FieldError):
            TableField(8, modulus=0x11B)

    def test_rejects_wrong_degree_modulus(self):
        with pytest.raises(FieldError):
            TableField(8, modulus=0x13)

    def test_unknown_impl(self):
        with pytest.raises(FieldError):
            GF(8, impl="fpga")

    @pytest.mark.parametrize("p", range(1, 11))
    def test_tables_match_the_power_loop_for_every_modulus(self, p):
        """Every degree-p modulus: the tables built by doubling are the
        one-power-at-a-time loop's, and a non-primitive modulus is refused
        (p >= 9 reaches the doubling)."""
        for modulus in range(1 << p, 1 << (p + 1)):
            want = _power_loop(p, modulus)
            if want is None:
                with pytest.raises(FieldError):
                    TableField(p, modulus)
            else:
                field = TableField(p, modulus)
                assert np.array_equal(field._exp, want[0]) and np.array_equal(field._log, want[1])

    @pytest.mark.parametrize("p", range(11, 17))
    def test_tables_match_the_power_loop_at_large_p(self, p):
        field = GF(p)
        exp, log = _power_loop(p, field.modulus)
        assert np.array_equal(field._exp, exp) and np.array_equal(field._log, log)
        with pytest.raises(FieldError):  # x^p + 1 = (x + 1)(...): reducible
            TableField(p, (1 << p) | 1)

    def test_attributes(self):
        F = GF(8)
        assert F.p == 8
        assert F.q == 256
        assert F.order == 256
        assert F.dtype == DTYPE


class TestArithmetic:
    def test_add_is_xor(self, field, rng):
        a = field.random(100, rng)
        b = field.random(100, rng)
        assert np.array_equal(field.add(a, b), a ^ b)
        assert np.array_equal(field.sub(a, b), a ^ b)

    def test_mul_identity(self, field, rng):
        a = field.random(100, rng)
        assert np.array_equal(field.mul(a, 1), a)
        assert np.all(field.mul(a, 0) == 0)

    def test_inverse(self, field, rng):
        a = field.random_nonzero(200, rng)
        assert np.all(field.mul(a, field.inv(a)) == 1)

    def test_inv_zero_raises(self, field):
        with pytest.raises(FieldError):
            field.inv(0)
        with pytest.raises(FieldError):
            field.inv(np.array([1, 0, 2], dtype=np.uint32))

    def test_div(self, field, rng):
        a = field.random(50, rng)
        b = field.random_nonzero(50, rng)
        q = field.div(a, b)
        assert np.array_equal(field.mul(q, b), field.asarray(a))

    def test_pow_small_exponents(self, field, rng):
        a = field.random_nonzero(50, rng)
        assert np.all(field.pow(a, 0) == 1)
        assert np.array_equal(field.pow(a, 1), field.asarray(a))
        assert np.array_equal(field.pow(a, 2), field.mul(a, a))
        assert np.array_equal(field.pow(a, 3), field.mul(a, field.mul(a, a)))

    def test_pow_fermat(self, field, rng):
        # a^(q-1) = 1 for nonzero a.
        a = field.random_nonzero(20, rng)
        assert np.all(field.pow(a, field.q - 1) == 1)

    def test_pow_negative_raises(self, field):
        with pytest.raises(FieldError):
            field.pow(3, -1)

    def test_broadcasting(self, field, rng):
        a = field.random((4, 5), rng)
        s = field.asarray(7 % field.q or 3)
        out = field.mul(a, s)
        assert out.shape == (4, 5)
        col = field.random((4, 1), rng)
        row = field.random((1, 5), rng)
        assert field.mul(col, row).shape == (4, 5)

    def test_out_of_range_rejected(self, field):
        with pytest.raises(FieldError):
            field.asarray(field.q)
        with pytest.raises(FieldError):
            field.mul(field.q, 1)


class TestLinearOps:
    def test_dot_matches_manual(self, field, rng):
        k, m = 5, 16
        coeffs = field.random(k, rng)
        vectors = field.random((k, m), rng)
        expected = field.zeros(m)
        for j in range(k):
            expected ^= field.mul(coeffs[j], vectors[j])
        assert np.array_equal(field.dot(coeffs, vectors), expected)

    def test_dot_shape_mismatch(self, field, rng):
        with pytest.raises(FieldError):
            field.dot(field.random(3, rng), field.random((4, 8), rng))

    def test_matmul_identity(self, field, rng):
        n = 6
        eye = field.zeros((n, n))
        eye[np.arange(n), np.arange(n)] = 1
        A = field.random((n, n), rng)
        assert np.array_equal(field.matmul(eye, A), A)
        assert np.array_equal(field.matmul(A, eye), A)

    def test_matmul_associative(self, field_fast, rng):
        F = field_fast
        A = F.random((3, 4), rng)
        B = F.random((4, 5), rng)
        C = F.random((5, 2), rng)
        left = F.matmul(F.matmul(A, B), C)
        right = F.matmul(A, F.matmul(B, C))
        assert np.array_equal(left, right)

    def test_matmul_shape_mismatch(self, field, rng):
        with pytest.raises(FieldError):
            field.matmul(field.random((2, 3), rng), field.random((4, 2), rng))


class TestExhaustiveGF256:
    """Full verification of GF(2^8): every product and inverse against
    the integer polynomial reference."""

    def test_every_product(self):
        from repro.gf.polynomials import poly_mod, poly_mul

        F = GF(8)
        a, b = np.meshgrid(
            np.arange(256, dtype=np.uint32), np.arange(256, dtype=np.uint32)
        )
        table = F.mul(a, b)
        for x in range(0, 256, 17):  # spot-check rows exactly
            for y in range(256):
                assert int(table[y, x]) == poly_mod(poly_mul(x, y), F.modulus)

    def test_every_inverse(self):
        F = GF(8)
        elements = np.arange(1, 256, dtype=np.uint32)
        inverses = F.inv(elements)
        assert np.all(F.mul(elements, inverses) == 1)
        # Inversion is an involution and a bijection.
        assert np.array_equal(F.inv(inverses), elements)
        assert len(set(inverses.tolist())) == 255

    def test_multiplicative_group_is_cyclic_of_order_255(self):
        F = GF(8)
        g = np.uint32(2)  # x generates, since the modulus is primitive
        seen = set()
        value = np.uint32(1)
        for _ in range(255):
            value = F.mul(value, g)
            seen.add(int(value))
        assert len(seen) == 255
        assert int(value) == 1  # g^255 = 1


class TestEquality:
    def test_eq_and_hash(self):
        assert GF(8) == TableField(8)
        assert hash(GF(8)) == hash(TableField(8))
        assert GF(8) != GF(16)
        assert GF(8) != ClmulField(8)  # different backend, different type
