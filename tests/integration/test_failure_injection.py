"""Failure injection: corruption, forgery, churn and starvation.

The system must degrade predictably: corrupted messages are filtered,
missing peers are routed around, insufficient data fails loudly (never a
silent wrong decode), and an impostor is turned away at the handshake.
"""

import numpy as np
import pytest

from repro.rlnc import CodingParams, FileEncoder, Offer, ProgressiveDecoder
from repro.security import DigestStore, generate_keypair
from repro.storage import MessageStore
from repro.transfer import (
    DownloadSession,
    ParallelDownloader,
    ProtocolError,
    ServingSession,
)

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8
FILE_ID = 0x55


@pytest.fixture(scope="module")
def keys():
    return generate_keypair(bits=512, seed=55)


def encode(rng, n_peers=3):
    data = rng.bytes(500)
    digests = DigestStore()
    encoder = FileEncoder(PARAMS, b"owner", file_id=FILE_ID)
    encoded = encoder.encode_bundles(data, n_peers=n_peers, digest_store=digests)
    return data, encoder, encoded, digests


class TestCorruption:
    def test_all_peers_corrupt_download_never_lies(self, rng, keys):
        """If every source is corrupt, the download must fail visibly —
        never return wrong bytes."""
        data, encoder, encoded, digests = encode(rng)
        sessions = []
        for bundle in encoded.bundles:
            store = MessageStore()
            store.add_messages(
                [m.with_payload(np.asarray(m.payload) ^ 1) for m in bundle]
            )
            s = ServingSession(store, keys.public)
            DownloadSession(keys).handshake(s, FILE_ID)
            sessions.append(s)
        decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, digests)
        report = ParallelDownloader(sessions, decoder, lambda i, t: 1000.0).run(200)
        assert not report.complete
        assert report.messages_rejected == 3 * PARAMS.k
        assert decoder.rank == 0

    def test_bit_flip_in_single_symbol_detected(self, rng):
        data, encoder, encoded, digests = encode(rng)
        decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, digests)
        msg = encoded.bundles[0][0]
        for n, position in enumerate((0, PARAMS.m // 2, PARAMS.m - 1), 1):
            tampered_payload = np.asarray(msg.payload).copy()
            tampered_payload[position] ^= 1
            # Admitted pending; dropped when the pending rows are checked.
            assert decoder.offer(msg.with_payload(tampered_payload)) == Offer.ACCEPTED
            assert decoder.settle() == 1
            assert (decoder.rank, decoder.rejected) == (0, n)
        assert decoder.offer(msg) == Offer.ACCEPTED  # the id is free

    def test_header_swap_detected(self, rng):
        """Replaying a valid payload under a different message id fails
        authentication (digests bind id to payload)."""
        data, encoder, encoded, digests = encode(rng)
        decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, digests)
        a, b = encoded.bundles[0][0], encoded.bundles[0][1]
        swapped = type(a)(
            file_id=a.file_id, message_id=b.message_id, payload=a.payload, p=a.p
        )
        # Admitted pending; dropped when the pending rows are checked.
        assert decoder.offer(swapped) == Offer.ACCEPTED
        assert decoder.settle() == 1
        assert (decoder.rank, decoder.rejected) == (0, 1)
        assert decoder.offer(b) == Offer.ACCEPTED  # the id is free


class TestChurn:
    def test_peer_loss_mid_download_recovers_from_others(self, rng, keys):
        data, encoder, encoded, digests = encode(rng)
        sessions = []
        for bundle in encoded.bundles:
            store = MessageStore()
            store.add_messages(bundle)
            s = ServingSession(store, keys.public)
            DownloadSession(keys).handshake(s, FILE_ID)
            sessions.append(s)

        # Peer 0 dies after slot 2 (rate drops to zero forever).
        def rate_fn(i, t):
            if i == 0 and t >= 2:
                return 0.0
            return 60.0  # slow enough that slot 2 arrives mid-transfer

        decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, digests)
        report = ParallelDownloader(sessions, decoder, rate_fn).run(10_000)
        assert report.complete
        assert decoder.result(len(data)) == data

    def test_exhausted_peers_insufficient_rank_fails_cleanly(self, rng, keys):
        data, encoder, encoded, digests = encode(rng)
        store = MessageStore()
        store.add_messages(encoded.bundles[0], limit=PARAMS.k - 2)
        s = ServingSession(store, keys.public)
        DownloadSession(keys).handshake(s, FILE_ID)
        decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, digests)
        report = ParallelDownloader([s], decoder, lambda i, t: 1e6).run(50)
        assert not report.complete
        assert decoder.needed == 2


class TestImpostor:
    def test_impostor_rejected_before_any_bytes(self, rng, keys):
        data, encoder, encoded, digests = encode(rng)
        store = MessageStore()
        store.add_messages(encoded.bundles[0])
        serving = ServingSession(store, keys.public)
        impostor = generate_keypair(bits=512, seed=999)
        with pytest.raises(ProtocolError):
            DownloadSession(impostor).handshake(serving, FILE_ID)
        assert serving.bytes_sent == 0.0
        with pytest.raises(ProtocolError):
            serving.serve(1000)


class TestWrongKeyDecoding:
    def test_wrong_secret_never_silently_succeeds(self, rng):
        """A peer that guesses the wrong secret cannot distinguish a
        correct guess: decoding 'works' but yields garbage, and with
        digests the garbage is detectable by the owner only."""
        data, encoder, encoded, digests = encode(rng)
        attacker = FileEncoder(PARAMS, b"not-the-owner", file_id=FILE_ID)
        decoder = ProgressiveDecoder(PARAMS, attacker.coefficients)
        for msg in encoded.bundles[0]:
            decoder.offer(msg)
        if decoder.is_complete:
            assert decoder.result(len(data)) != data
