"""Unit tests for coding-parameter arithmetic (Table I math)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rlnc import (
    ONE_MEGABYTE,
    PAPER_EXAMPLE,
    TABLE1_FIELD_BITS,
    TABLE1_MESSAGE_LENGTHS,
    CodingParams,
    table1_grid,
)


class TestCodingParams:
    def test_paper_running_example(self):
        # Section III-C: "k = 8, m = 32,768 and q = 2^32"
        assert PAPER_EXAMPLE.k == 8
        assert PAPER_EXAMPLE.m == 32768
        assert PAPER_EXAMPLE.q == 1 << 32
        assert PAPER_EXAMPLE.file_bytes == ONE_MEGABYTE

    def test_k_formula_exact_grid(self):
        for p in TABLE1_FIELD_BITS:
            for m in TABLE1_MESSAGE_LENGTHS:
                params = CodingParams(p=p, m=m)
                assert params.k == (8 * ONE_MEGABYTE) // (m * p)

    def test_k_rounds_up(self):
        # 100 bytes = 800 bits at p=8, m=33 -> 800/264 = 3.03 -> k=4
        params = CodingParams(p=8, m=33, file_bytes=100)
        assert params.k == 4
        assert params.padded_bytes >= 100

    def test_k_is_exact_above_the_float_mantissa(self):
        """``ceil(int / int)`` through a float rounds the quotient above
        2^53 bits and came out one chunk short here."""
        params = CodingParams(p=8, m=1 << 27, file_bytes=(1 << 57) + 1)
        assert params.k == (1 << 30) + 1
        assert params.symbols_per_file == (1 << 57) + 1
        assert CodingParams(p=4, m=3, file_bytes=(1 << 57) + 1).symbols_per_file == (1 << 58) + 2

    @given(
        p=st.sampled_from(TABLE1_FIELD_BITS),
        m=st.integers(1, 1 << 40),
        file_bytes=st.integers(1, 1 << 70),
    )
    def test_k_chunks_cover_the_file_and_k_minus_one_do_not(self, p, m, file_bytes):
        params = CodingParams(p=p, m=m, file_bytes=file_bytes)
        assert (params.k - 1) * m * p < params.file_bits <= params.k * m * p
        assert (params.symbols_per_file - 1) * p < params.file_bits <= params.symbols_per_file * p
        assert 8 * (params.message_bytes - 1) < m * p <= 8 * params.message_bytes

    def test_message_bytes(self):
        assert CodingParams(p=8, m=100, file_bytes=100).message_bytes == 100
        assert CodingParams(p=4, m=100, file_bytes=50).message_bytes == 50
        assert CodingParams(p=32, m=8, file_bytes=32).message_bytes == 32

    def test_expansion_overhead_zero_when_aligned(self):
        assert CodingParams(p=8, m=256, file_bytes=4096).expansion_overhead == 0.0

    def test_expansion_overhead_positive_when_padded(self):
        params = CodingParams(p=32, m=100, file_bytes=150)
        assert params.expansion_overhead > 0.0

    def test_decode_cost_monotone_in_k(self):
        cheap = CodingParams(p=32, m=1 << 18)
        costly = CodingParams(p=32, m=1 << 13)
        assert costly.decode_field_ops() > cheap.decode_field_ops()

    def test_describe_mentions_field_and_k(self):
        text = PAPER_EXAMPLE.describe()
        assert "GF(2^32)" in text and "k=8" in text

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=5, m=100),
            dict(p=8, m=0),
            dict(p=8, m=10, file_bytes=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CodingParams(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PAPER_EXAMPLE.m = 1


class TestTable1Grid:
    def test_full_paper_table(self):
        grid = table1_grid()
        expected = {
            4: (256, 128, 64, 32, 16, 8),
            8: (128, 64, 32, 16, 8, 4),
            16: (64, 32, 16, 8, 4, 2),
            32: (32, 16, 8, 4, 2, 1),
        }
        for p, row in expected.items():
            for m, k in zip(TABLE1_MESSAGE_LENGTHS, row):
                assert grid[(p, m)] == k

    def test_scales_with_file_size(self):
        half = table1_grid(file_bytes=ONE_MEGABYTE // 2)
        assert half[(32, 1 << 15)] == 4  # half the messages of the 1MB case

    def test_grid_shape(self):
        assert len(table1_grid()) == len(TABLE1_FIELD_BITS) * len(
            TABLE1_MESSAGE_LENGTHS
        )
