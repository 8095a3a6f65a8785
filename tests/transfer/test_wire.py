"""Tests for the control-plane wire framing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rlnc import EncodedMessage
from repro.security import Challenge, ChallengeResponse
from repro.transfer import (
    AuthChallenge,
    AuthResponse,
    DataMessage,
    FeedbackUpdate,
    FileAccept,
    FileRequest,
    StopTransmission,
    WireFormatError,
    decode_frame,
    encode_frame,
)
from repro.transfer.wire import extract_context, inject_context


def sample_frames():
    challenge = Challenge(nonce=b"N" * 32, context=b"download file 5")
    payload = np.arange(6, dtype=np.uint32)
    return [
        AuthChallenge(challenge),
        AuthResponse(challenge, ChallengeResponse(signature=123456789 ** 3)),
        FileRequest(file_id=0xCAFE),
        FileAccept(file_id=0xCAFE, available_messages=8),
        DataMessage(EncodedMessage(file_id=1, message_id=2, payload=payload, p=16)),
        StopTransmission(file_id=0xCAFE),
        StopTransmission(file_id=-1),
        FeedbackUpdate(user=3, received=(0.0, 12.5, 99.75)),
    ]


class TestRoundtrip:
    @pytest.mark.parametrize("frame", sample_frames(), ids=lambda f: type(f).__name__)
    def test_each_frame_type(self, frame):
        decoded = decode_frame(encode_frame(frame))
        assert type(decoded) is type(frame)
        if isinstance(frame, DataMessage):
            assert decoded.message.file_id == frame.message.file_id
            assert decoded.message.message_id == frame.message.message_id
            assert np.array_equal(decoded.message.payload, frame.message.payload)
        else:
            assert decoded == frame

    def test_data_frame_layout_and_zero_copy_parse(self):
        message = sample_frames()[4].message
        frame = encode_frame(DataMessage(message))
        record = message.to_bytes()
        assert frame == (
            b"\x05" + (16).to_bytes(4, "big") + len(record).to_bytes(4, "big") + record
        )
        decoded = decode_frame(frame).message
        assert decoded == message  # DataMessage compares equal now, too
        # the payload is a slice of the frame, through the envelope as well
        assert decoded.payload_bytes().obj is frame
        wrapped = _enveloped(frame)
        _, inner = extract_context(wrapped)
        assert isinstance(inner, memoryview) and inner.obj is wrapped
        assert decode_frame(inner).message.payload_bytes().obj is wrapped

    def test_decoded_message_does_not_alias_a_mutable_frame(self):
        frame = bytearray(encode_frame(sample_frames()[4]))
        decoded = decode_frame(frame).message
        before = decoded.to_bytes()
        frame[-1] ^= 0xFF
        assert decoded.to_bytes() == before

    def test_frame_types_distinct(self):
        frames = sample_frames()
        first_bytes = {encode_frame(f)[0] for f in frames}
        # 8 samples but StopTransmission appears twice
        assert len(first_bytes) == 7


class TestStrictness:
    def test_empty(self):
        with pytest.raises(WireFormatError):
            decode_frame(b"")

    def test_unknown_type(self):
        with pytest.raises(WireFormatError):
            decode_frame(b"\xff\x00")

    def test_truncation_every_prefix(self):
        wire = encode_frame(sample_frames()[1])  # AuthResponse, nested fields
        for cut in range(1, len(wire)):
            with pytest.raises(WireFormatError):
                decode_frame(wire[:cut])

    def test_trailing_garbage(self):
        wire = encode_frame(FileRequest(file_id=7))
        with pytest.raises(WireFormatError):
            decode_frame(wire + b"\x00")

    def test_bad_symbol_width(self):
        wire = bytearray(encode_frame(sample_frames()[4]))
        wire[1:5] = (0).to_bytes(4, "big")  # p = 0
        with pytest.raises(WireFormatError):
            decode_frame(bytes(wire))

    def test_non_protocol_object(self):
        with pytest.raises(WireFormatError):
            encode_frame("hello")


class TestProperties:
    @given(
        file_id=st.integers(min_value=0, max_value=(1 << 64) - 1),
        available=st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_accept_roundtrip(self, file_id, available):
        frame = FileAccept(file_id=file_id, available_messages=available)
        assert decode_frame(encode_frame(frame)) == frame

    @given(
        nonce=st.binary(min_size=0, max_size=64),
        context=st.binary(min_size=0, max_size=64),
        signature=st.integers(min_value=0, max_value=1 << 512),
    )
    @settings(max_examples=50, deadline=None)
    def test_auth_response_roundtrip(self, nonce, context, signature):
        frame = AuthResponse(
            Challenge(nonce=nonce, context=context),
            ChallengeResponse(signature=signature),
        )
        assert decode_frame(encode_frame(frame)) == frame

    @given(
        user=st.integers(min_value=0, max_value=(1 << 32) - 1),
        received=st.lists(
            st.floats(min_value=0, max_value=1e9, allow_nan=False), max_size=16
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_feedback_roundtrip(self, user, received):
        frame = FeedbackUpdate(user=user, received=tuple(received))
        assert decode_frame(encode_frame(frame)) == frame


class TestEndToEndHandshakeOverWire:
    def test_signed_exchange_survives_framing(self):
        """Run the challenge-response through encode/decode, as a socket
        deployment would."""
        from repro.security import Prover, Verifier, generate_keypair

        keys = generate_keypair(bits=512, seed=3)
        verifier = Verifier(keys.public)
        challenge_frame = encode_frame(AuthChallenge(verifier.issue_challenge()))

        # ... travels to the user ...
        received = decode_frame(challenge_frame)
        response_frame = encode_frame(
            AuthResponse(
                received.challenge, Prover(keys.private).respond(received.challenge)
            )
        )

        # ... travels back to the peer ...
        answer = decode_frame(response_frame)
        assert verifier.verify(answer.challenge, answer.response)


class TestContextEnvelope:
    """Trace-context envelope (frame type 8) around any inner frame."""

    def _span(self):
        from repro.obs.spans import SpanHandle

        return SpanHandle(trace_id=0xAB, span_id=0xCD, parent_id=0, op="x")

    @pytest.mark.parametrize(
        "frame", sample_frames(), ids=lambda f: type(f).__name__
    )
    def test_wrap_unwrap_every_frame_type(self, frame):
        from repro.transfer.wire import extract_context, inject_context

        wire = inject_context(encode_frame(frame), span=self._span())
        assert wire[0] == 8
        remote, inner = extract_context(wire)
        assert remote.trace_id == 0xAB and remote.span_id == 0xCD
        assert inner == encode_frame(frame)
        decoded = decode_frame(inner)
        assert type(decoded) is type(frame)

    def test_no_span_means_no_envelope(self):
        from repro.transfer.wire import extract_context, inject_context

        wire = encode_frame(FileRequest(file_id=1))
        assert inject_context(wire) == wire  # no active span
        remote, inner = extract_context(wire)
        assert remote is None and inner == wire

    def test_current_span_is_picked_up(self):
        from repro.obs import TRACER
        from repro.obs.spans import span_scope
        from repro.transfer.wire import extract_context, inject_context

        prev = TRACER.enabled
        TRACER.enabled = True
        try:
            with span_scope("send") as span:
                wire = inject_context(encode_frame(FileRequest(file_id=2)))
        finally:
            TRACER.enabled = prev
            TRACER.clear()
        remote, _ = extract_context(wire)
        assert remote.trace_id == span.trace_id
        assert remote.span_id == span.span_id

    def test_truncated_envelope_raises(self):
        from repro.transfer.wire import extract_context, inject_context

        wire = inject_context(
            encode_frame(FileRequest(file_id=3)), span=self._span()
        )
        for cut in range(1, len(wire)):
            with pytest.raises(WireFormatError):
                extract_context(wire[:cut])

    def test_trailing_garbage_raises(self):
        from repro.transfer.wire import extract_context, inject_context

        wire = inject_context(
            encode_frame(FileRequest(file_id=4)), span=self._span()
        )
        with pytest.raises(WireFormatError):
            extract_context(wire + b"\x00")

    def test_empty_inner_frame_raises(self):
        import struct

        from repro.transfer.wire import extract_context

        wire = bytes([8]) + struct.pack(">QQI", 1, 2, 0)
        with pytest.raises(WireFormatError, match="empty frame"):
            extract_context(wire)


def _u32(value: int) -> bytes:
    return value.to_bytes(4, "big")


def _enveloped(frame: bytes) -> bytes:
    """``frame`` inside a type-8 trace-context envelope."""
    from repro.obs.spans import SpanHandle

    return inject_context(frame, span=SpanHandle(trace_id=1, span_id=2, parent_id=0, op="x"))


#: One valid wire frame of every type 1-8.
VALID_FRAMES = [encode_frame(f) for f in sample_frames()]
VALID_FRAMES.append(_enveloped(VALID_FRAMES[4]))


@st.composite
def mutated_frames(draw):
    """A valid frame truncated, extended, or with one byte replaced."""
    wire = draw(st.sampled_from(VALID_FRAMES))
    at = draw(st.integers(0, len(wire) - 1))
    kind = draw(st.sampled_from(["truncate", "extend", "flip"]))
    if kind == "truncate":
        return wire[:at]
    if kind == "extend":
        return wire + draw(st.binary(min_size=1, max_size=8))
    return wire[:at] + bytes([wire[at] ^ draw(st.integers(1, 255))]) + wire[at + 1 :]


#: A well-framed DATA frame around arbitrary record bytes: the random
#: strategies above almost never get a consistent length prefix.
data_frames = st.builds(
    lambda p, record: b"\x05" + _u32(p) + _u32(len(record)) + record,
    st.sampled_from([4, 8, 16, 32]),
    st.binary(max_size=48),
)


class TestFuzz:
    """Garbage dies at the parser, with the parser's own error."""

    @given(wire=st.one_of(st.binary(max_size=96), mutated_frames(), data_frames))
    @example(wire=b"\x05" + _u32(16) + _u32(3) + b"abc")  # record < header
    @example(  # 3 payload bytes at p=16: half a symbol the peer never sent
        wire=b"\x05" + _u32(16) + _u32(19) + bytes(16) + b"\x01\x02\x03"
    )
    @settings(max_examples=400, deadline=None)
    def test_rejects_or_decodes_stably(self, wire):
        try:
            _, inner = extract_context(wire)
            message = decode_frame(inner)
        except WireFormatError:
            return
        # Bytes, not ==: NaN feedback values and zero-led signatures
        # decode to messages that do not compare equal to themselves or
        # re-encode shorter, but their encoding must be a fixed point.
        once = encode_frame(message)
        assert encode_frame(decode_frame(once)) == once
        if isinstance(message, DataMessage):
            assert once == inner  # no symbol invented or dropped
