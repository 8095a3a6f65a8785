"""Unit tests for serving/download session state machines."""

import pytest

from repro.rlnc import CodingParams, FileEncoder
from repro.security import Challenge, Prover, generate_keypair
from repro.storage import MessageStore
from repro.transfer import (
    AuthResponse,
    DownloadSession,
    FileRequest,
    ProtocolError,
    ServingSession,
    StopTransmission,
    decode_frame,
    encode_frame,
)

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8
FILE_ID = 0x22


@pytest.fixture(scope="module")
def user_keys():
    return generate_keypair(bits=512, seed=77)


@pytest.fixture
def store(rng):
    encoder = FileEncoder(PARAMS, b"s", file_id=FILE_ID)
    encoded = encoder.encode_bundles(rng.bytes(500), n_peers=1)
    s = MessageStore()
    s.add_messages(encoded.bundles[0])
    return s


@pytest.fixture
def serving(store, user_keys):
    return ServingSession(store, user_keys.public)


def authed(serving, user_keys, file_id=FILE_ID):
    DownloadSession(user_keys).handshake(serving, file_id)
    return serving


class TestHandshake:
    def test_happy_path(self, serving, user_keys):
        accept = DownloadSession(user_keys).handshake(serving, FILE_ID)
        assert accept.file_id == FILE_ID
        assert accept.available_messages == PARAMS.k
        assert serving.active

    def test_request_before_auth_rejected(self, serving):
        with pytest.raises(ProtocolError):
            serving.accept_request(FileRequest(FILE_ID))

    def test_wrong_key_rejected(self, serving):
        imposter = generate_keypair(bits=512, seed=666)
        with pytest.raises(ProtocolError):
            DownloadSession(imposter).handshake(serving, FILE_ID)
        assert not serving.active

    def test_relayed_context_rejected_through_the_wire(self, serving, user_keys):
        # A man in the middle has the user sign this peer's nonce under a
        # context of its choosing and replays the frame to the peer.
        issued = serving.begin_auth().challenge
        cross = Challenge(nonce=issued.nonce, context=b"delete file A")
        frame = AuthResponse(cross, Prover(user_keys.private).respond(cross))
        assert not serving.complete_auth(decode_frame(encode_frame(frame)))
        with pytest.raises(ProtocolError):
            serving.accept_request(FileRequest(FILE_ID))

    def test_serve_before_request_rejected(self, serving):
        with pytest.raises(ProtocolError):
            serving.serve(1000)


class TestServing:
    def test_whole_budget_delivers_all(self, serving, user_keys):
        authed(serving, user_keys)
        wire = PARAMS.k * (16 + PARAMS.message_bytes)
        delivered = serving.serve(wire)
        assert len(delivered) == PARAMS.k
        assert not serving.active  # exhausted

    def test_partial_budget_carries_over(self, serving, user_keys):
        authed(serving, user_keys)
        msg_size = 16 + PARAMS.message_bytes
        assert serving.serve(msg_size * 0.6) == []
        # The fractional progress persists: 0.6 + 0.6 > 1 message.
        assert len(serving.serve(msg_size * 0.6)) == 1

    def test_exact_budget_boundary(self, serving, user_keys):
        authed(serving, user_keys)
        msg_size = 16 + PARAMS.message_bytes
        assert len(serving.serve(msg_size)) == 1
        assert len(serving.serve(msg_size * 2)) == 2

    def test_zero_budget_nothing(self, serving, user_keys):
        authed(serving, user_keys)
        assert serving.serve(0) == []

    def test_negative_budget_rejected(self, serving, user_keys):
        authed(serving, user_keys)
        with pytest.raises(ValueError):
            serving.serve(-1)

    def test_stop_halts_stream(self, serving, user_keys):
        authed(serving, user_keys)
        serving.serve(16 + PARAMS.message_bytes)
        serving.stop(StopTransmission(FILE_ID))
        assert not serving.active
        assert serving.serve(10**9) == []

    def test_counters(self, serving, user_keys):
        authed(serving, user_keys)
        serving.serve(2 * (16 + PARAMS.message_bytes))
        assert serving.messages_sent == 2
        assert serving.bytes_sent == pytest.approx(2 * (16 + PARAMS.message_bytes))

    def test_serial_order_matches_store(self, store, user_keys):
        serving = ServingSession(store, user_keys.public)
        authed(serving, user_keys)
        delivered = serving.serve(10**9)
        expected = [m.message_id for m in store.messages(FILE_ID)]
        assert [d.message.message_id for d in delivered] == expected
