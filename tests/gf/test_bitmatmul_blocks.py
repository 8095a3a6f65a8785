"""The column-blocked bit-packed engine equals per-element ``field.mul``.

``bit_matmul`` walks the ``m`` columns in blocks sized by its table
budget and the ``r`` output rows in blocks derived from it; these
properties cover what the small-shape oracle suite
(``test_kernel_equivalence``) cannot reach: tall stacked products
(``r >> n``), several column blocks with a ragged last one, several row
blocks, and zero rows/columns of ``C``.

Every case runs on both backends (``conftest.py``): the compiled kernel
and the numpy body must each equal the reference, byte for byte.  The
compiled kernel's own block sizes are fixed (512-symbol column blocks,
256 output bit-rows per pass, 64 groups per table chunk), so its edges
are spelled out at the end rather than reached by shrinking a budget.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF
from repro.gf import bitmatmul as bm

FIELDS = {p: GF(p) for p in (4, 8, 16, 32)}
SHAPES = st.tuples(
    st.sampled_from([4, 8, 16, 32]),  # p
    st.sampled_from([2, 8, 64, 513]),  # r
    st.sampled_from([8, 33, 64]),  # n
)


def reference(field, C, P):
    """``sum_j C[:, j] * P[j]`` with the validating per-element product."""
    out = field.zeros((C.shape[0], P.shape[1]))
    for j in range(C.shape[1]):
        out ^= field.mul(C[:, j, None], P[j][None, :])
    return out


def operands(data, field, r, n, m):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    C = field.random((r, n), rng)
    P = field.random((n, m), rng)
    if data.draw(st.booleans(), label="zero row"):
        C[data.draw(st.integers(0, r - 1))] = 0
    if data.draw(st.booleans(), label="zero column"):
        C[:, data.draw(st.integers(0, n - 1))] = 0
    return C, P


def groups(n, p):
    return -(-n * p // 8)


def assert_matches_reference(results, field, C, P):
    want = reference(field, C, P)
    for name, got in results.items():
        assert got.dtype == np.uint32 and np.array_equal(got, want), name


@given(shape=SHAPES, data=st.data())
@settings(max_examples=25, deadline=None)
def test_tall_products_match_field_mul(every_backend, shape, data):
    p, r, n = shape
    field = FIELDS[p]
    m = data.draw(st.integers(65, 300).filter(lambda v: v % 64), label="m")
    C, P = operands(data, field, r, n, m)
    assert_matches_reference(every_backend(lambda: bm.bit_matmul(field, C, P)), field, C, P)


@given(shape=SHAPES, data=st.data())
@settings(max_examples=25, deadline=None)
def test_three_or_more_column_blocks_with_ragged_tail(every_backend, shape, data):
    """A budget worth one or two words of tables per block: every shape
    crosses >= 3 column blocks (the last one narrower) and, at
    ``r >= 64``, several output row blocks (on the compiled kernel: several
    calls, one per block of generator rows)."""
    p, r, n = shape
    field = FIELDS[p]
    words = data.draw(st.sampled_from([1, 2]), label="words per block")
    m = data.draw(
        st.integers(2 * 64 * words + 1, 4 * 64 * words + 63).filter(lambda v: v % 64),
        label="m",
    )
    C, P = operands(data, field, r, n, m)
    with mock.patch.object(bm, "_TABLE_BYTES", groups(n, p) * 256 * 8 * words):
        results = every_backend(lambda: bm.bit_matmul(field, C, P))
    assert_matches_reference(results, field, C, P)


@pytest.mark.parametrize("p", [4, 8, 16, 32])
def test_default_budget_spans_three_blocks(every_backend, p):
    """No patching: ``n = 64`` at the shipped budget, ``m`` just past two
    full column blocks."""
    field, n, r = FIELDS[p], 64, 3
    words = bm._TABLE_BYTES // (groups(n, p) * 256 * 8)
    m = 2 * 64 * words + 37
    rng = np.random.default_rng(p)
    C, P = field.random((r, n), rng), field.random((n, m), rng)
    C[1] = 0
    assert_matches_reference(every_backend(lambda: bm.bit_matmul(field, C, P)), field, C, P)


# ------------------------------------------- the compiled kernel's own edges


def random_operands(field, r, n, m, seed=0):
    rng = np.random.default_rng([field.p, r, n, m, seed])
    return field.random((r, n), rng), field.random((n, m), rng)


@pytest.mark.parametrize("m", [64, 65, 511, 512, 513, 4097])
@pytest.mark.parametrize("p", [8, 32])
def test_column_block_edges(backend, p, m):
    """One 64-symbol word, one 512-symbol block, and one symbol either side."""
    field = FIELDS[p]
    C, P = random_operands(field, 3, 5, m)
    assert np.array_equal(bm.bit_matmul(field, C, P), reference(field, C, P))


@pytest.mark.parametrize(
    "p, r, n",
    [
        (32, 9, 3),  # 288 output bit-rows: one full 256-row pass and a short one
        (16, 17, 8),  # 272
        (4, 65, 3),  # 260, and n*p = 12 leaves half a group of inner bits
        (4, 2, 5),  # n*p = 20
        (8, 2, 65),  # 520 inner bits: a second chunk of table groups, XORed into out
        (32, 3, 17),  # 544
    ],
)
def test_row_block_and_group_edges(backend, p, r, n):
    field = FIELDS[p]
    C, P = random_operands(field, r, n, 130)
    assert np.array_equal(bm.bit_matmul(field, C, P), reference(field, C, P))


@pytest.mark.parametrize("p", [8, 32])
def test_strided_and_read_only_inputs_are_left_alone(backend, p):
    field = FIELDS[p]
    big_c, big_p = random_operands(field, 12, 27, 1400)
    C, P = big_c[::2, ::3], big_p[::3, ::2]
    assert not C.flags.c_contiguous and not P.flags.c_contiguous
    big_c.flags.writeable = big_p.flags.writeable = False
    before = big_c.copy(), big_p.copy()
    got = bm.bit_matmul(field, C, P)
    assert np.array_equal(got, reference(field, C.copy(), P.copy()))
    assert np.array_equal(big_c, before[0]) and np.array_equal(big_p, before[1])
    assert got.flags.writeable and got.flags.c_contiguous


def test_one_bit_field(backend):
    field = GF(1)
    C, P = random_operands(field, 300, 11, 600)
    C[7] = 0
    assert np.array_equal(bm.bit_matmul(field, C, P), reference(field, C, P))
