"""Unit tests specific to the GF(2^32) tower-field backend."""

import numpy as np
import pytest

from repro.gf import FieldError, TowerField
from repro.gf.tower import _find_trace_one, _trace


@pytest.fixture(scope="module")
def F():
    return TowerField()


class TestConstruction:
    def test_basic_attributes(self, F):
        assert F.p == 32
        assert F.q == 1 << 32

    def test_c_has_trace_one(self, F):
        assert _trace(F.base, int(F.c)) == 1

    def test_c_is_minimal(self, F):
        for c in range(1, int(F.c)):
            assert _trace(F.base, c) == 0

    def test_trace_of_one_is_zero(self, F):
        # deg(GF(2^16)/GF(2)) = 16 is even, so Tr(1) = 0 — this is why
        # c = 1 cannot be used.
        assert _trace(F.base, 1) == 0

    def test_find_trace_one_matches(self, F):
        assert _find_trace_one(F.base) == int(F.c)

    def test_c_is_pinned(self, F):
        # c defines the field: every GF(2^32) coefficient and stored
        # message depends on it, however the search is implemented.
        assert int(F.c) == 8192
        assert F.modulus == (1 << 32) | (1 << 16) | 8192


class TestEmbeddedBaseField:
    """The subfield {lo 16 bits} must behave exactly like GF(2^16)."""

    def test_base_embedding_multiplies_consistently(self, F, rng):
        a = F.base.random(500, rng).astype(np.uint32)
        b = F.base.random(500, rng).astype(np.uint32)
        # Elements with hi = 0 multiply inside the base field.
        assert np.array_equal(F.mul(a, b), F.base.mul(a, b).astype(np.uint32))

    def test_base_inverse_consistent(self, F, rng):
        a = F.base.random_nonzero(200, rng).astype(np.uint32)
        assert np.array_equal(F.inv(a), F.base.inv(a).astype(np.uint32))


class TestQuadraticStructure:
    def test_y_squared_equals_y_plus_c(self, F):
        y = np.uint32(1 << 16)
        y2 = F.mul(y, y)
        assert int(y2) == (1 << 16) ^ int(F.c)

    def test_norm_formula(self, F, rng):
        # (a1 y + a0)(a1 y + a0 + a1) must land in the base field
        # (hi part zero) — the norm used by inv().
        a = F.random_nonzero(300, rng)
        a1 = (a >> np.uint32(16)).astype(np.uint32)
        conj = ((a1.astype(np.uint64) << 16) | ((a ^ (a1 << np.uint32(0))) & np.uint32(0xFFFF))).astype(np.uint32)
        # conj = a1*y + (a0 + a1): build explicitly
        a0 = a & np.uint32(0xFFFF)
        conj = ((a1.astype(np.uint32) << np.uint32(16)) | (a0 ^ a1))
        prod = F.mul(a, conj)
        assert np.all((prod >> np.uint32(16)) == 0)

    def test_inverse_roundtrip_large_sample(self, F, rng):
        a = F.random_nonzero(5000, rng)
        assert np.all(F.mul(a, F.inv(a)) == 1)

    def test_inv_zero_raises(self, F):
        with pytest.raises(FieldError):
            F.inv(np.zeros(3, dtype=np.uint32))

    def test_out_of_range_operands_rejected(self, F):
        """``_mul`` validates once at entry; the base-field products
        behind it run on the bare table gather."""
        too_big = np.array([1, 1 << 32], dtype=np.uint64)
        for a, b in ((too_big, 3), (3, too_big), (1 << 32, 1)):
            with pytest.raises(FieldError):
                F.mul(a, b)
        with pytest.raises(FieldError):
            F.inv(too_big)

    def test_mul_matches_validated_base_products(self, F, rng):
        """The trusted gather equals Karatsuba over the public
        ``TableField.mul``, zero halves included."""
        B, c = F.base, F.c
        a, b = F.random(3000, rng), F.random(3000, rng)
        a[:500] &= np.uint32(0xFFFF)  # hi = 0
        b[250:750] &= np.uint32(0xFFFF0000)  # lo = 0
        a[-1] = b[-2] = 0
        a1, a0, b1, b0 = a >> 16, a & 0xFFFF, b >> 16, b & 0xFFFF
        t0, t2 = B.mul(a0, b0), B.mul(a1, b1)
        t1 = B.mul(a0 ^ a1, b0 ^ b1) ^ t0 ^ t2
        expected = ((t1 ^ t2) << np.uint32(16)) | (t0 ^ B.mul(t2, c))
        assert np.array_equal(F.mul(a, b), expected)


class TestAxiomsSampled:
    def test_distributivity(self, F, rng):
        a, b, c = (F.random(2000, rng) for _ in range(3))
        assert np.array_equal(F.mul(a, b ^ c), F.mul(a, b) ^ F.mul(a, c))

    def test_associativity(self, F, rng):
        a, b, c = (F.random(2000, rng) for _ in range(3))
        assert np.array_equal(F.mul(F.mul(a, b), c), F.mul(a, F.mul(b, c)))

    def test_commutativity(self, F, rng):
        a, b = F.random(2000, rng), F.random(2000, rng)
        assert np.array_equal(F.mul(a, b), F.mul(b, a))

    def test_no_zero_divisors(self, F, rng):
        a = F.random_nonzero(2000, rng)
        b = F.random_nonzero(2000, rng)
        assert np.all(F.mul(a, b) != 0)
