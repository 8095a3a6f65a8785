"""Unit tests for 1 MB chunking, manifests and streaming reassembly."""

import numpy as np
import pytest

from repro.rlnc import (
    ChunkedEncoder,
    CodingParams,
    FileManifest,
    Offer,
    StreamingDecoder,
    derive_chunk_id,
    split_chunks,
)
from repro.security import DigestStore

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8, tiny "1MB"


class TestSplitChunks:
    def test_even_split(self):
        chunks = split_chunks(b"a" * 1024, 256)
        assert len(chunks) == 4
        assert all(len(c) == 256 for c in chunks)

    def test_ragged_tail(self):
        chunks = split_chunks(b"a" * 1000, 256)
        assert len(chunks) == 4
        assert len(chunks[-1]) == 1000 - 3 * 256

    def test_empty_file_is_one_chunk(self):
        assert split_chunks(b"", 256) == [b""]

    def test_reassembly(self, rng):
        data = rng.bytes(3000)
        assert b"".join(split_chunks(data, 512)) == data

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            split_chunks(b"x", 0)


class TestDeriveChunkId:
    def test_chunk0_keeps_base(self):
        assert derive_chunk_id(0xABC, 0) == 0xABC

    def test_later_chunks_distinct(self):
        ids = {derive_chunk_id(0xABC, i) for i in range(100)}
        assert len(ids) == 100

    def test_deterministic(self):
        assert derive_chunk_id(5, 3) == derive_chunk_id(5, 3)

    def test_fits_64_bits(self):
        assert derive_chunk_id((1 << 64) - 1, 7) < (1 << 64)


class TestManifest:
    def test_roundtrip_dict(self):
        m = FileManifest(
            base_file_id=9,
            total_length=700,
            chunk_bytes=512,
            p=16,
            m=32,
            chunk_ids=(9, derive_chunk_id(9, 1)),
            chunk_lengths=(512, 188),
        )
        assert FileManifest.from_dict(m.to_dict()) == m

    def test_defaults_are_version_zero_without_hashes(self):
        m = FileManifest(9, 100, 512, 16, 32, (9,), (100,))
        assert (m.version, m.chunk_versions, m.chunk_hashes) == (0, (0,), ())

    def test_both_dict_shapes_round_trip_to_equal_objects(self, rng):
        enc = ChunkedEncoder(PARAMS, b"s", base_file_id=3)
        manifest, _ = enc.encode_file(rng.bytes(1800), n_peers=1)
        updated = enc.update(manifest, rng.bytes(1300), n_peers=1).manifest
        assert set(updated.chunk_versions) == {1}
        for m in (manifest, updated):
            loaded = FileManifest.from_dict(m.to_dict())
            assert loaded == m and loaded.chunk_ids == m.chunk_ids
        plain = {
            "base_file_id": 3, "total_length": 1800, "chunk_bytes": 512,
            "p": 16, "m": 32,
            "chunk_ids": list(manifest.chunk_ids),
            "chunk_lengths": list(manifest.chunk_lengths),
        }
        loaded = FileManifest.from_dict(plain)
        assert loaded.chunk_ids == manifest.chunk_ids
        assert (loaded.version, loaded.chunk_hashes) == (0, ())
        assert FileManifest.from_dict(loaded.to_dict()) == loaded

    def test_dict_ids_must_agree_with_versions(self, rng):
        enc = ChunkedEncoder(PARAMS, b"s", base_file_id=3)
        manifest, _ = enc.encode_file(rng.bytes(700), n_peers=1)
        blob = manifest.to_dict()
        assert FileManifest.from_dict({**blob, "chunk_ids": manifest.chunk_ids}) == manifest
        with pytest.raises(ValueError, match="disagree"):
            FileManifest.from_dict({**blob, "chunk_ids": [3, 4]})

    def test_versions_need_a_version(self, rng):
        enc = ChunkedEncoder(PARAMS, b"s", base_file_id=3)
        blob = enc.encode_file(rng.bytes(700), n_peers=1)[0].to_dict()
        for key in ("version", "chunk_versions"):
            partial = {k: v for k, v in blob.items() if k != key}
            with pytest.raises(KeyError):
                FileManifest.from_dict(partial)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FileManifest(
                base_file_id=9, total_length=100, chunk_bytes=512,
                p=16, m=32, chunk_ids=(9,), chunk_lengths=(99,),
            )

    def test_alignment_rejected(self):
        with pytest.raises(ValueError):
            FileManifest(
                base_file_id=9, total_length=100, chunk_bytes=512,
                p=16, m=32, chunk_ids=(9, 10), chunk_lengths=(100,),
            )


class TestChunkedEncoder:
    def test_manifest_matches_data(self, rng):
        data = rng.bytes(1800)
        enc = ChunkedEncoder(PARAMS, b"s", base_file_id=3)
        manifest, chunks = enc.encode_file(data, n_peers=2)
        assert manifest.n_chunks == 4
        assert manifest.total_length == len(data)
        assert sum(manifest.chunk_lengths) == len(data)
        assert len(chunks) == 4
        assert manifest.chunk_ids[0] == 3

    def test_per_chunk_secrets_differ(self):
        enc = ChunkedEncoder(PARAMS, b"s", base_file_id=3)
        g0 = enc.coefficient_generator(0)
        g1 = enc.coefficient_generator(1)
        assert not np.array_equal(g0.row(0), g1.row(0))

    def test_single_chunk_small_file(self, rng):
        data = rng.bytes(100)
        enc = ChunkedEncoder(PARAMS, b"s", base_file_id=3)
        manifest, chunks = enc.encode_file(data, n_peers=2)
        assert manifest.n_chunks == 1


class TestStreamingDecoder:
    @pytest.fixture
    def stack(self, rng):
        data = rng.bytes(1500)
        store = DigestStore()
        enc = ChunkedEncoder(PARAMS, b"s", base_file_id=44)
        manifest, chunks = enc.encode_file(data, n_peers=3, digest_store=store)
        return data, enc, manifest, chunks, store

    def test_in_order_streaming(self, stack):
        data, enc, manifest, chunks, store = stack
        dec = StreamingDecoder(manifest, enc, digest_store=store)
        emitted = b""
        for encoded_file in chunks:  # chunk by chunk, in order
            for msg in encoded_file.bundles[0]:
                dec.offer(msg)
            emitted += b"".join(dec.pop_ready())
        assert emitted == data
        assert dec.result() == data

    def test_out_of_order_chunks_buffered(self, stack):
        data, enc, manifest, chunks, store = stack
        dec = StreamingDecoder(manifest, enc, digest_store=store)
        # Complete the LAST chunk first: nothing pops (in-order emission).
        for msg in chunks[-1].bundles[0]:
            dec.offer(msg)
        assert dec.pop_ready() == []
        # Now complete the rest; everything pops in order.
        for encoded_file in chunks[:-1]:
            for msg in encoded_file.bundles[0]:
                dec.offer(msg)
        out = b"".join(dec.pop_ready())
        assert out == data

    def test_unknown_chunk_rejected(self, stack):
        data, enc, manifest, chunks, store = stack
        other_enc = ChunkedEncoder(PARAMS, b"s", base_file_id=999)
        _, other_chunks = other_enc.encode_file(b"x" * 100, n_peers=1)
        dec = StreamingDecoder(manifest, enc, digest_store=store)
        assert dec.offer(other_chunks[0].bundles[0][0]) == Offer.REJECTED

    def test_result_before_complete_raises(self, stack):
        data, enc, manifest, chunks, store = stack
        dec = StreamingDecoder(manifest, enc, digest_store=store)
        with pytest.raises(ValueError):
            dec.result()

    def test_needed_for_chunk(self, stack):
        data, enc, manifest, chunks, store = stack
        dec = StreamingDecoder(manifest, enc, digest_store=store)
        assert dec.needed_for_chunk(0) == PARAMS.k
        dec.offer(chunks[0].bundles[0][0])
        assert dec.needed_for_chunk(0) == PARAMS.k - 1

    def test_mixed_peer_sources(self, stack, rng):
        data, enc, manifest, chunks, store = stack
        dec = StreamingDecoder(manifest, enc, digest_store=store)
        msgs = [m for ef in chunks for bundle in ef.bundles for m in bundle]
        rng.shuffle(msgs)
        for msg in msgs:
            dec.offer(msg)
            if dec.is_complete:
                break
        assert dec.result() == data


class TestChunkView:
    """``StreamingDecoder.chunk(i)``: one chunk as a download target."""

    @pytest.fixture
    def stack(self, rng):
        data = rng.bytes(1500)
        store = DigestStore()
        enc = ChunkedEncoder(PARAMS, b"s", base_file_id=44)
        manifest, chunks = enc.encode_file(data, n_peers=3, digest_store=store)
        return data, enc, manifest, chunks, store

    @staticmethod
    def counters(dec, manifest):
        return [
            (d.accepted, d.dependent, d.rejected, d.rank)
            for d in (dec._decoders[cid] for cid in manifest.chunk_ids)
        ]

    def test_offer_many_equals_one_by_one(self, stack):
        data, enc, manifest, chunks, store = stack
        own = chunks[1].bundles[0]
        batch = [
            own[0],
            own[0],  # duplicate
            chunks[2].bundles[0][0],  # another chunk's message: routed there
            own[1].with_payload(np.asarray(own[1].payload) ^ 1),  # forged
            *own[1:],  # completes chunk 1 on its last message...
            *chunks[1].bundles[1],  # ...so none of these is consumed
        ]
        one_by_one = StreamingDecoder(manifest, enc, digest_store=store)
        expected = []
        for msg in batch:
            if one_by_one.needed_for_chunk(1) == 0:
                break
            expected.append(one_by_one.offer(msg))

        batched = StreamingDecoder(manifest, enc, digest_store=store)
        view = batched.chunk(1)
        assert view.needed == PARAMS.k and not view.is_complete
        outcomes = view.offer_many(iter(batch))
        assert outcomes == expected
        assert len(outcomes) == 3 + len(own)  # stopped at completion, midway
        assert Offer.REJECTED in outcomes and Offer.COMPLETE in outcomes
        assert view.is_complete and view.needed == 0
        assert view.offer_many(batch) == []
        assert self.counters(batched, manifest) == self.counters(one_by_one, manifest)
        assert batched.needed_for_chunk(2) == PARAMS.k - 1
        assert batched._results == one_by_one._results

    def test_views_share_the_streaming_result(self, stack):
        data, enc, manifest, chunks, store = stack
        dec = StreamingDecoder(manifest, enc, digest_store=store)
        for index, encoded_file in enumerate(chunks):
            view = dec.chunk(index)
            assert view.offer(encoded_file.bundles[0][0]) == Offer.ACCEPTED
            view.offer_many(encoded_file.bundles[0][1:])
            assert view.is_complete
        assert dec.result() == data
