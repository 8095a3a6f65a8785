"""``record_matmul`` multiplies packed records as ``field.matmul``
multiplies their symbols.

The packed entry takes an ``(n, B)`` uint8 block of message records and
returns the ``(r, B)`` block of the product's records; the reference
unpacks the same records, multiplies the ``uint32`` symbols with
``field.matmul`` and packs the result (``pack_rows``).  Shapes straddle
what the compiled kernel branches on: its 512-symbol column blocks,
``256 / p`` symbol rows per gather pass, 64 groups of eight inner
bit-rows per table chunk (the XOR into ``out``), and an odd ``m`` at
``p = 4``, whose padding nibble is a zero column.  Every case runs on
both backends (``conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF, ClmulField
from repro.gf import bitmatmul as bm
from repro.rlnc.message import pack_rows

FIELDS = {p: GF(p) for p in (4, 8, 16, 32)}


def around(v):
    return [max(1, v - 1), v, v + 1]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_records_match_the_symbol_product(every_backend, data):
    p = data.draw(st.sampled_from([4, 8, 16, 32]), label="p")
    field = FIELDS[p]
    r = data.draw(st.sampled_from([1, 3, *around(256 // p)]), label="r")
    n = data.draw(st.sampled_from([1, 2, 5, *around(512 // p)]), label="n")
    m = data.draw(st.sampled_from([1, 63, 64, 65, 511, 513, 1031]), label="m")
    if p > 4:
        m += m % 2  # whole bytes
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    C, P = field.random((r, n), rng), field.random((n, m), rng)
    if data.draw(st.booleans(), label="zero row"):
        C[data.draw(st.integers(0, r - 1))] = 0
    want = pack_rows(field.matmul(C, P), p)
    block = pack_rows(P, p)
    for name, got in every_backend(lambda: bm.record_matmul(field, C, block)).items():
        assert got.shape == want.shape and got.dtype == np.uint8, name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name


@pytest.mark.parametrize("p", [4, 8, 16, 32])
def test_empty_and_degenerate_products(backend, p):
    field = FIELDS[p]
    block = pack_rows(field.random((3, 64), np.random.default_rng(p)), p)
    assert bm.record_matmul(field, field.zeros((0, 3)), block).shape == (0, block.shape[1])
    empty = bm.record_matmul(field, field.zeros((2, 0)), block[:0])
    assert empty.shape == (2, block.shape[1]) and not empty.any()
    assert bm.record_matmul(field, field.zeros((2, 3)), block[:, :0]).shape == (2, 0)
    with pytest.raises(ValueError):
        bm.record_matmul(field, field.zeros((2, 2)), block)


def test_fields_without_tables_run_the_numpy_body():
    """The kernel builds its generator from a table field's or the
    tower's tables; any other field multiplies in numpy, same bytes."""
    table, clmul = GF(8), ClmulField(8)
    rng = np.random.default_rng(8)
    C, P = table.random((5, 7), rng), table.random((7, 600), rng)
    block = pack_rows(P, 8)
    assert bm.compiled(clmul) is None
    want = bm.record_matmul(table, C, block)
    assert bm.record_matmul(clmul, C, block).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="4, 8, 16 or 32"):
        bm.record_matmul(GF(13), C[:, :1], block[:1])
