"""Unit tests for keyed coefficient generation (the secrecy core)."""

import numpy as np
import pytest

from repro.gf import GF
from repro.rlnc import CoefficientGenerator


@pytest.fixture
def gen():
    return CoefficientGenerator(GF(16), k=8, secret=b"secret", file_id=7)


class TestDeterminism:
    def test_same_inputs_same_row(self, gen):
        assert np.array_equal(gen.row(5), gen.row(5))

    def test_reconstructible_by_owner(self):
        # A fresh generator with the same (secret, file_id) regenerates
        # identical rows — this is what lets the owner decode.
        a = CoefficientGenerator(GF(16), 8, b"secret", 7)
        b = CoefficientGenerator(GF(16), 8, b"secret", 7)
        for mid in (0, 1, 99, 12345):
            assert np.array_equal(a.row(mid), b.row(mid))

    def test_rows_cached(self, gen):
        assert gen.row(3) is gen.row(3)

    def test_rows_read_only(self, gen):
        with pytest.raises(ValueError):
            gen.row(1)[0] = 0


class TestSecrecyContract:
    def test_different_secret_different_rows(self):
        a = CoefficientGenerator(GF(16), 8, b"secret-A", 7)
        b = CoefficientGenerator(GF(16), 8, b"secret-B", 7)
        assert not np.array_equal(a.row(0), b.row(0))

    def test_different_file_id_different_rows(self):
        a = CoefficientGenerator(GF(16), 8, b"secret", 7)
        b = CoefficientGenerator(GF(16), 8, b"secret", 8)
        assert not np.array_equal(a.row(0), b.row(0))

    def test_different_message_id_different_rows(self, gen):
        assert not np.array_equal(gen.row(0), gen.row(1))


class TestDistribution:
    def test_elements_in_field(self, gen):
        rows = gen.matrix(range(100))
        assert rows.dtype == GF(16).dtype
        assert int(rows.max()) < GF(16).q

    def test_roughly_uniform(self):
        # Mean of uniform GF(2^8) symbols should be near 127.5.
        gen = CoefficientGenerator(GF(8), k=64, secret=b"s", file_id=0)
        rows = gen.matrix(range(200))
        mean = float(rows.mean())
        assert 115 < mean < 140

    def test_almost_surely_independent(self):
        # For q = 2^32, k random rows are independent w.p. ~1 - k/q.
        from repro.gf import rank

        F = GF(32)
        gen = CoefficientGenerator(F, k=16, secret=b"s", file_id=1)
        M = gen.matrix(range(16))
        assert rank(F, M) == 16


class TestMatrix:
    def test_matrix_stacks_rows(self, gen):
        M = gen.matrix([4, 9, 2])
        assert M.shape == (3, 8)
        assert np.array_equal(M[0], gen.row(4))
        assert np.array_equal(M[2], gen.row(2))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            CoefficientGenerator(GF(8), k=0, secret=b"s", file_id=0)


class TestMatrixBatching:
    """matrix() batches cache misses but must reproduce row() exactly."""

    def test_rows_identical_to_row_calls(self, gen):
        fresh = CoefficientGenerator(GF(16), k=8, secret=b"secret", file_id=7)
        ids = [12, 3, 12, 44, 0, 3]
        M = gen.matrix(ids)
        rows = np.stack([fresh.row(i) for i in ids])
        assert M.tobytes() == rows.tobytes()

    def test_batched_rows_are_cached_read_only(self):
        gen = CoefficientGenerator(GF(16), k=4, secret=b"s", file_id=2)
        gen.matrix([5, 6])
        cached = gen.row(5)
        assert not cached.flags.writeable
        # Subsequent matrix() calls reuse the cache, not the stream.
        assert np.array_equal(gen.matrix([5])[0], cached)

    def test_batch_is_frozen_whole_and_cached_as_row_views(self):
        gen = CoefficientGenerator(GF(8), k=4, secret=b"s", file_id=2)
        gen.row(6)  # cached on its own before the batch
        M = gen.matrix([5, 6, 7, 5])
        rows = [gen.row(i) for i in (5, 7)]
        assert rows[0].base is rows[1].base and rows[0].base is not None
        assert not rows[0].base.flags.writeable  # no way in through the block
        assert gen.row(6).base is None
        for row in rows:
            with pytest.raises(ValueError):
                row[0] = 0
        # matrix() hands out a stacked copy: writing to it reaches no row
        expected = M.copy()
        M[:] = 0
        assert np.array_equal(gen.matrix([5, 6, 7, 5]), expected)

    def test_out_of_range_stream_symbol_is_refused(self, monkeypatch):
        from repro.gf import FieldError

        gen = CoefficientGenerator(GF(4), k=4, secret=b"s", file_id=2)
        monkeypatch.setattr(
            gen._stream, "symbols_many",
            lambda labels, count, bits: np.full((len(labels), count), 16, dtype=np.uint32),
        )
        with pytest.raises(FieldError):
            gen.matrix([1, 2])
        assert not gen._cache

    def test_mixed_cached_and_missing(self):
        a = CoefficientGenerator(GF(8), k=6, secret=b"s", file_id=3)
        b = CoefficientGenerator(GF(8), k=6, secret=b"s", file_id=3)
        a.row(1)  # warm one row
        M = a.matrix([0, 1, 2])
        assert M.tobytes() == b.matrix([0, 1, 2]).tobytes()

    def test_empty_ids(self, gen):
        assert gen.matrix([]).shape == (0, 8)
