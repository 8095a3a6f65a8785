"""Unit tests for chunk-level versioned updates."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.rlnc import (
    ChunkedEncoder,
    CodingParams,
    FileManifest,
    Offer,
    StreamingDecoder,
    derive_chunk_id,
)
from repro.security import DigestStore

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8


@pytest.fixture
def encoder():
    return ChunkedEncoder(PARAMS, b"owner", base_file_id=0xAA)


@pytest.fixture
def original(rng):
    return rng.bytes(4 * 512)  # exactly 4 chunks


def decode_pool(encoder, manifest, pool, digest_store=None):
    """Decode a whole file of the manifest's version from a message pool."""
    decoder = StreamingDecoder(manifest, encoder, digest_store)
    for msg in pool:
        decoder.offer(msg)
    return decoder.result()


class TestVersionedIds:
    def test_version0_matches_plain_chunking(self):
        """Version 0 is the never-updated wire contract: chunk 0 keeps the
        base id, later chunks hash ``base || index``."""
        assert derive_chunk_id(0xAA, 0, 0) == 0xAA
        for i in range(1, 5):
            material = (0xAA).to_bytes(8, "big") + i.to_bytes(8, "big")
            plain = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
            assert derive_chunk_id(0xAA, i, 0) == derive_chunk_id(0xAA, i) == plain

    def test_versions_rotate_ids(self):
        ids = {derive_chunk_id(0xAA, 1, v) for v in range(10)}
        assert len(ids) == 10

    def test_updated_chunk0_leaves_the_base_id(self):
        assert derive_chunk_id(0xAA, 0, 1) != 0xAA


class TestPublish:
    def test_v0_roundtrip(self, encoder, original):
        manifest, encoded = encoder.encode_file(original, n_peers=2)
        assert manifest.version == 0
        assert manifest.n_chunks == 4
        pool = [m for ef in encoded for b in ef.bundles for m in b]
        assert decode_pool(encoder, manifest, pool) == original

    def test_manifest_dict_roundtrip(self, encoder, original):
        manifest, _ = encoder.encode_file(original, n_peers=1)
        assert FileManifest.from_dict(manifest.to_dict()) == manifest


class TestUpdate:
    def test_single_byte_edit_reencodes_one_chunk(self, encoder, original):
        manifest, _ = encoder.encode_file(original, n_peers=2)
        edited = bytearray(original)
        edited[600] ^= 0xFF  # inside chunk 1
        result = encoder.update(manifest, bytes(edited), n_peers=2)
        assert result.changed_chunks == (1,)
        assert result.unchanged_chunks == (0, 2, 3)
        assert set(result.reencoded) == {1}
        assert result.manifest.chunk_versions == (0, 1, 0, 0)
        assert result.upload_savings == pytest.approx(0.75)

    def test_stale_ids_reported(self, encoder, original):
        manifest, _ = encoder.encode_file(original, n_peers=2)
        edited = bytearray(original)
        edited[0] ^= 1
        result = encoder.update(manifest, bytes(edited), n_peers=2)
        assert result.stale_chunk_ids == (derive_chunk_id(0xAA, 0),)

    def test_unchanged_chunk_ids_survive(self, encoder, original):
        manifest, _ = encoder.encode_file(original, n_peers=1)
        edited = original[:512] + bytes(512) + original[1024:]
        result = encoder.update(manifest, edited, n_peers=1)
        assert result.manifest.chunk_ids[0] == manifest.chunk_ids[0]
        assert result.manifest.chunk_ids[2:] == manifest.chunk_ids[2:]
        assert result.manifest.chunk_ids[1] != manifest.chunk_ids[1]

    def test_updated_file_decodes(self, encoder, original, rng):
        store = DigestStore()
        manifest, encoded = encoder.encode_file(original, n_peers=2, digest_store=store)
        edited = bytearray(original)
        edited[100] ^= 0x55
        edited[1500] ^= 0x77  # chunks 0 and 2
        result = encoder.update(manifest, bytes(edited), n_peers=2, digest_store=store)
        assert result.changed_chunks == (0, 2)

        # Message pool = surviving old messages + replacement bundles.
        pool = []
        for i, ef in enumerate(encoded):
            if i in result.reencoded:
                ef = result.reencoded[i]
            pool.extend(m for b in ef.bundles for m in b)
        decoded = decode_pool(encoder, result.manifest, pool, digest_store=store)
        assert decoded == bytes(edited)

    def test_growth_appends_chunks(self, encoder, original, rng):
        manifest, _ = encoder.encode_file(original, n_peers=1)
        grown = original + rng.bytes(700)  # +2 chunks
        result = encoder.update(manifest, grown, n_peers=1)
        assert result.manifest.n_chunks == 6
        assert result.changed_chunks == (4, 5)
        assert result.stale_chunk_ids == ()

    def test_shrinkage_retires_chunks(self, encoder, original):
        manifest, _ = encoder.encode_file(original, n_peers=1)
        shrunk = original[: 2 * 512]
        result = encoder.update(manifest, shrunk, n_peers=1)
        assert result.manifest.n_chunks == 2
        assert result.changed_chunks == ()
        assert len(result.stale_chunk_ids) == 2

    def test_tail_partial_chunk_edit(self, encoder, rng):
        data = rng.bytes(512 + 100)
        manifest, _ = encoder.encode_file(data, n_peers=1)
        edited = data[:-1] + bytes([data[-1] ^ 1])
        result = encoder.update(manifest, edited, n_peers=1)
        assert result.changed_chunks == (1,)

    def test_sequential_updates_increment_versions(self, encoder, original):
        manifest, _ = encoder.encode_file(original, n_peers=1)
        v = manifest
        for round_ in range(1, 4):
            edited = bytearray(original)
            edited[0] = round_
            result = encoder.update(v, bytes(edited), n_peers=1)
            v = result.manifest
            assert v.version == round_
            assert v.chunk_versions[0] == round_

    def test_no_change_is_a_noop(self, encoder, original):
        manifest, _ = encoder.encode_file(original, n_peers=3)
        result = encoder.update(manifest, original, n_peers=3)
        assert result.changed_chunks == ()
        assert result.upload_bytes == 0
        assert result.upload_savings == 1.0
        assert result.manifest.chunk_ids == manifest.chunk_ids

    def test_wrong_manifest_rejected(self, encoder, original):
        other = ChunkedEncoder(PARAMS, b"owner", base_file_id=0xBB)
        manifest, _ = other.encode_file(original, n_peers=1)
        with pytest.raises(ValueError):
            encoder.update(manifest, original, n_peers=1)

    def test_manifest_without_hashes_refused(self, encoder, original):
        """Not silently "everything changed": there is nothing to diff."""
        manifest, _ = encoder.encode_file(original, n_peers=1)
        bare = dataclasses.replace(manifest, chunk_hashes=())
        with pytest.raises(ValueError, match="not versioned"):
            encoder.update(bare, original, n_peers=1)


class TestCoefficientRotation:
    def test_new_version_new_coefficients(self, encoder, original):
        """Reusing coefficients across versions would leak the XOR of
        plaintexts; verify each version draws a fresh stream."""
        manifest, _ = encoder.encode_file(original, n_peers=1)
        edited = bytearray(original)
        edited[0] ^= 1
        result = encoder.update(manifest, bytes(edited), n_peers=1)
        g0 = encoder.coefficient_generator(0, manifest.chunk_versions[0])
        g1 = encoder.coefficient_generator(0, result.manifest.chunk_versions[0])
        assert not np.array_equal(g0.row(0), g1.row(0))

    def test_stale_messages_not_decodable_as_new(self, encoder, original):
        manifest, old_encoded = encoder.encode_file(original, n_peers=1)
        edited = bytearray(original)
        edited[0] ^= 1
        result = encoder.update(manifest, bytes(edited), n_peers=1)
        decoder = StreamingDecoder(result.manifest, encoder)
        stale_chunk0 = old_encoded[0].bundles[0]
        for msg in stale_chunk0:
            # Old chunk-0 messages carry the old file id: routed nowhere.
            assert all(
                msg.file_id != cid for cid in (result.manifest.chunk_ids[0],)
            )
            assert decoder.chunk(0).offer(msg) == Offer.REJECTED
