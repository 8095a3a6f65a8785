"""Unit tests for the file encoder and bundle screening."""

import numpy as np
import pytest

from repro.gf import GF, rank
from repro.rlnc import CodingParams, FileEncoder
from repro.security import DigestStore

PARAMS = CodingParams(p=16, m=64, file_bytes=1024)  # k = 8


@pytest.fixture
def encoder():
    return FileEncoder(PARAMS, secret=b"owner", file_id=0xABCD)


@pytest.fixture
def data(rng):
    return rng.bytes(1000)


class TestSourceMatrix:
    def test_shape(self, encoder, data):
        X = encoder.source_matrix(data)
        assert X.shape == (PARAMS.k, PARAMS.m)

    def test_too_large_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder.source_matrix(b"x" * (PARAMS.file_bytes + 1))

    def test_field_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FileEncoder(PARAMS, b"s", 1, field=GF(8))


class TestEncodeMessage:
    def test_equation_1(self, encoder, data):
        """Y_i must equal sum_j beta_ij X_j exactly (Equation (1))."""
        X = encoder.source_matrix(data)
        F = encoder.field
        for mid in (0, 3, 17):
            msg = encoder.encode_message(X, mid)
            beta = encoder.coefficients.row(mid)
            expected = F.zeros(PARAMS.m)
            for j in range(PARAMS.k):
                expected ^= F.mul(beta[j], X[j])
            assert np.array_equal(msg.payload, expected)
            assert msg.file_id == 0xABCD
            assert msg.message_id == mid

    def test_zero_file_encodes_to_zero(self, encoder):
        X = encoder.source_matrix(b"")
        msg = encoder.encode_message(X, 0)
        assert np.all(np.asarray(msg.payload) == 0)

    def test_linearity(self, encoder, rng):
        """Encoding is linear: enc(a ^ b) = enc(a) ^ enc(b)."""
        a = rng.bytes(1024)
        b = rng.bytes(1024)
        ab = bytes(x ^ y for x, y in zip(a, b))
        Xa = encoder.source_matrix(a)
        Xb = encoder.source_matrix(b)
        Xab = encoder.source_matrix(ab)
        ya = encoder.encode_message(Xa, 5).payload
        yb = encoder.encode_message(Xb, 5).payload
        yab = encoder.encode_message(Xab, 5).payload
        assert np.array_equal(np.asarray(ya) ^ np.asarray(yb), yab)


class TestIndependentIds:
    def test_bundles_have_k_ids(self, encoder):
        bundles = encoder.independent_ids(3)
        assert len(bundles) == 3
        assert all(len(b) == PARAMS.k for b in bundles)

    def test_bundles_disjoint_and_increasing(self, encoder):
        bundles = encoder.independent_ids(4)
        flat = [i for b in bundles for i in b]
        assert len(set(flat)) == len(flat)
        assert flat == sorted(flat)

    def test_every_bundle_invertible(self, encoder):
        F = encoder.field
        for ids in encoder.independent_ids(5):
            M = encoder.coefficients.matrix(ids)
            assert rank(F, M) == PARAMS.k

    def test_small_field_bundles_still_invertible(self):
        # GF(2^4) with k = 8: dependent rows are common (k/q = 0.5),
        # so the screening must actually skip some ids.
        params = CodingParams(p=4, m=16, file_bytes=64)
        enc = FileEncoder(params, b"s", 1)
        bundles = enc.independent_ids(200)
        F = enc.field
        for ids in bundles[:20]:  # spot-check invertibility
            assert rank(F, enc.coefficients.matrix(ids)) == params.k
        flat = [i for b in bundles for i in b]
        # Over 200 bundles at q=16 the expected number of rejected
        # candidate ids is ~14; zero rejections would mean the screening
        # is not actually running (P ~ 1e-6).
        assert max(flat) >= len(flat)

    @pytest.mark.parametrize(
        "p, file_id, skipped",
        [(4, 22, [7, 8, 17, 18]), (8, 3, [15]), (16, 1, []), (32, 1, [])],
    )
    def test_screening_verdicts_pinned(self, p, file_id, skipped):
        """The ids 8 bundles take, recorded before ``IncrementalRank``
        stopped back-substituting: the verdicts must not depend on how
        the kept rows are stored."""
        k = 8
        params = CodingParams(p=p, m=16, file_bytes=k * 16 * p // 8)
        enc = FileEncoder(params, b"owner", file_id)
        taken = [i for i in range(8 * k + len(skipped)) if i not in skipped]
        expected = [taken[b * k : (b + 1) * k] for b in range(8)]
        assert enc.independent_ids(8) == expected

    def test_start_id_respected(self, encoder):
        bundles = encoder.independent_ids(1, start_id=1000)
        assert min(bundles[0]) >= 1000


class TestEncodeBundles:
    def test_structure(self, encoder, data):
        encoded = encoder.encode_bundles(data, n_peers=4)
        assert len(encoded.bundles) == 4
        assert encoded.messages_per_bundle == PARAMS.k
        assert encoded.length == len(data)
        assert len(encoded.all_messages()) == 4 * PARAMS.k

    def test_digests_recorded(self, encoder, data):
        store = DigestStore()
        encoded = encoder.encode_bundles(data, n_peers=3, digest_store=store)
        assert len(store) == 3 * PARAMS.k
        msg = encoded.bundles[1][2]
        assert store.verify(msg.file_id, msg.message_id, msg.payload_bytes())

    def test_needs_at_least_one_peer(self, encoder, data):
        with pytest.raises(ValueError):
            encoder.encode_bundles(data, n_peers=0)

    def test_nk_messages_total(self, encoder, data):
        # Section III-A: nk coded messages for an n-peer network.
        n = 6
        encoded = encoder.encode_bundles(data, n_peers=n)
        assert len(encoded.all_messages()) == n * PARAMS.k
