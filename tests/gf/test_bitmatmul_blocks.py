"""The column-blocked bit-packed engine equals per-element ``field.mul``.

``bit_matmul`` walks the ``m`` columns in blocks sized by its table
budget and the ``r`` output rows in blocks derived from it; these
properties cover what the small-shape oracle suite
(``test_kernel_equivalence``) cannot reach: tall stacked products
(``r >> n``), several column blocks with a ragged last one, several row
blocks, and zero rows/columns of ``C``.
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


@given(shape=SHAPES, data=st.data())
@settings(max_examples=25, deadline=None)
def test_tall_products_match_field_mul(shape, data):
    p, r, n = shape
    field = FIELDS[p]
    m = data.draw(st.integers(65, 300).filter(lambda v: v % 64), label="m")
    C, P = operands(data, field, r, n, m)
    assert np.array_equal(bm.bit_matmul(field, C, P), reference(field, C, P))


@given(shape=SHAPES, data=st.data())
@settings(max_examples=25, deadline=None)
def test_three_or_more_column_blocks_with_ragged_tail(shape, data):
    """A budget worth one or two words of tables per block: every shape
    crosses >= 3 column blocks (the last one narrower) and, at
    ``r >= 64``, several output row blocks."""
    p, r, n = shape
    field = FIELDS[p]
    words = data.draw(st.sampled_from([1, 2]), label="words per block")
    m = data.draw(
        st.integers(2 * 64 * words + 1, 4 * 64 * words + 63).filter(lambda v: v % 64),
        label="m",
    )
    C, P = operands(data, field, r, n, m)
    with mock.patch.object(bm, "_TABLE_BYTES", groups(n, p) * 256 * 8 * words):
        got = bm.bit_matmul(field, C, P)
    assert np.array_equal(got, reference(field, C, P))


@pytest.mark.parametrize("p", [4, 8, 16, 32])
def test_default_budget_spans_three_blocks(p):
    """No patching: ``n = 64`` at the shipped budget, ``m`` just past two
    full column blocks."""
    field, n, r = FIELDS[p], 64, 3
    words = bm._TABLE_BYTES // (groups(n, p) * 256 * 8)
    m = 2 * 64 * words + 37
    rng = np.random.default_rng(p)
    C, P = field.random((r, n), rng), field.random((n, m), rng)
    C[1] = 0
    assert np.array_equal(bm.bit_matmul(field, C, P), reference(field, C, P))
