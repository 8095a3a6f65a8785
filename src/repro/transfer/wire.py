"""Binary framing for every protocol message of Fig. 4(b).

The data plane already has a wire format (Fig. 3,
:class:`~repro.rlnc.message.EncodedMessage`); this module completes the
picture for the *control* plane so a socket-based deployment could speak
the protocol byte-for-byte.  Each frame is::

    1 byte   frame type
    payload  type-specific, fixed layout or length-prefixed fields

Big integers (RSA signatures) and variable byte strings are prefixed
with a 4-byte big-endian length.  ``decode_frame`` is strict: trailing
garbage, truncation, or an unknown type raise :class:`WireFormatError`
rather than best-effort parsing — forged control frames must fail
loudly.
"""

from __future__ import annotations

import struct

from ..obs.spans import SpanHandle, extract, inject
from ..rlnc.message import HEADER_BYTES, EncodedMessage, MessageFormatError
from ..security.auth import Challenge, ChallengeResponse
from .protocol import (
    AuthChallenge,
    AuthResponse,
    DataMessage,
    FeedbackUpdate,
    FileAccept,
    FileRequest,
    StopTransmission,
)

__all__ = [
    "WireFormatError",
    "encode_frame",
    "decode_frame",
    "FRAME_TYPES",
    "CONTEXT_FRAME_TYPE",
    "inject_context",
    "extract_context",
]


class WireFormatError(ValueError):
    """Raised for malformed or truncated control frames."""


FRAME_TYPES = {
    AuthChallenge: 1,
    AuthResponse: 2,
    FileRequest: 3,
    FileAccept: 4,
    DataMessage: 5,
    StopTransmission: 6,
    FeedbackUpdate: 7,
}
_BY_ID = {v: k for k, v in FRAME_TYPES.items()}

#: Envelope carrying trace context around any inner frame (see
#: :func:`inject_context` / :func:`extract_context`).
CONTEXT_FRAME_TYPE = 8

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")
#: Everything of a DATA frame that is not payload: type byte, ``p``, the
#: record's length prefix and the record's own 16-byte header.
_DATA_HEAD = struct.Struct(">BIIQQ")


def _pack_bytes(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def _pack_bigint(value: int) -> bytes:
    if value < 0:
        raise WireFormatError("negative integers are not representable")
    raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return _pack_bytes(raw)


class _Reader:
    """Cursor over a frame body with strict bounds checking.

    Reads through one ``memoryview`` of the frame: :meth:`take` hands out
    slices, so a DATA payload is never copied between the frame and its
    message.
    """

    def __init__(self, wire, pos: int = 0):
        self.data = memoryview(wire)
        self.pos = pos

    def take(self, count: int) -> memoryview:
        if self.pos + count > len(self.data):
            raise WireFormatError("frame truncated")
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def view_field(self) -> memoryview:
        """A length-prefixed field as a slice of the frame."""
        return self.take(self.u32())

    def bytes_field(self) -> bytes:
        return bytes(self.view_field())

    def bigint(self) -> int:
        return int.from_bytes(self.view_field(), "big")

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise WireFormatError(
                f"{len(self.data) - self.pos} trailing bytes after frame"
            )


def encode_frame(message) -> bytes:
    """Serialise any protocol message to its framed wire bytes."""
    frame_type = FRAME_TYPES.get(type(message))
    if frame_type is None:
        raise WireFormatError(f"not a protocol message: {type(message).__name__}")
    if isinstance(message, DataMessage):  # first: nearly every frame is one
        inner = message.message
        packed = inner.payload_bytes()
        # p travels in the frame so the receiver can parse the payload;
        # the payload goes in as the packed slice the message holds.
        return b"".join((
            _DATA_HEAD.pack(
                frame_type, inner.p, HEADER_BYTES + len(packed),
                inner.file_id, inner.message_id,
            ),
            packed,
        ))
    head = bytes([frame_type])
    if isinstance(message, AuthChallenge):
        c = message.challenge
        return head + _pack_bytes(c.nonce) + _pack_bytes(c.context)
    if isinstance(message, AuthResponse):
        c = message.challenge
        return (
            head
            + _pack_bytes(c.nonce)
            + _pack_bytes(c.context)
            + _pack_bigint(message.response.signature)
        )
    if isinstance(message, FileRequest):
        return head + _U64.pack(message.file_id)
    if isinstance(message, FileAccept):
        return head + _U64.pack(message.file_id) + _U32.pack(
            message.available_messages
        )
    if isinstance(message, StopTransmission):
        # file_id may be -1 ("all"); map through unsigned space.
        return head + _U64.pack(message.file_id & ((1 << 64) - 1))
    if isinstance(message, FeedbackUpdate):
        body = head + _U32.pack(message.user) + _U32.pack(len(message.received))
        for value in message.received:
            body += _F64.pack(value)
        return body
    raise AssertionError("unreachable")


def decode_frame(wire: bytes):
    """Parse framed wire bytes back into the protocol message."""
    if not wire:
        raise WireFormatError("empty frame")
    cls = _BY_ID.get(wire[0])
    if cls is None:
        raise WireFormatError(f"unknown frame type {wire[0]}")
    r = _Reader(wire, 1)
    if cls is AuthChallenge:
        out = AuthChallenge(
            Challenge(nonce=r.bytes_field(), context=r.bytes_field())
        )
    elif cls is AuthResponse:
        challenge = Challenge(nonce=r.bytes_field(), context=r.bytes_field())
        out = AuthResponse(
            challenge=challenge,
            response=ChallengeResponse(signature=r.bigint()),
        )
    elif cls is FileRequest:
        out = FileRequest(file_id=r.u64())
    elif cls is FileAccept:
        out = FileAccept(file_id=r.u64(), available_messages=r.u32())
    elif cls is DataMessage:
        p = r.u32()
        if p not in (4, 8, 16, 32):
            raise WireFormatError(f"invalid symbol width {p}")
        try:
            out = DataMessage(EncodedMessage.from_bytes(r.view_field(), p=p))
        except MessageFormatError as exc:
            raise WireFormatError(f"malformed DATA record: {exc}") from exc
    elif cls is StopTransmission:
        raw = r.u64()
        # undo the unsigned mapping of -1
        out = StopTransmission(file_id=-1 if raw == (1 << 64) - 1 else raw)
    elif cls is FeedbackUpdate:
        user = r.u32()
        count = r.u32()
        out = FeedbackUpdate(
            user=user, received=tuple(r.f64() for _ in range(count))
        )
    else:  # pragma: no cover
        raise AssertionError("unreachable")
    r.finish()
    return out


def inject_context(frame: bytes, span: SpanHandle | None = None) -> bytes:
    """Wrap framed wire bytes in a trace-context envelope::

        1 byte   frame type (8)
        8 bytes  trace_id (big-endian u64)
        8 bytes  span_id  (big-endian u64)
        payload  length-prefixed inner frame

    ``span`` defaults to the current span (see
    :func:`repro.obs.spans.current_span`); with no span active the frame
    is returned unwrapped, so injection is safe to apply unconditionally
    on a send path.  This is how causality will cross the ``repro.net``
    peer boundary: the receiver calls :func:`extract_context` and
    parents its serving span on the handle.
    """
    carrier = inject(span)
    if "trace_id" not in carrier:
        return frame
    return (
        bytes([CONTEXT_FRAME_TYPE])
        + _U64.pack(carrier["trace_id"])
        + _U64.pack(carrier["span_id"])
        + _pack_bytes(frame)
    )


def extract_context(wire: bytes) -> tuple[SpanHandle | None, bytes | memoryview]:
    """Undo :func:`inject_context`: ``(remote parent or None, inner frame)``.

    Non-envelope frames pass through unchanged with a ``None`` handle,
    so receivers can call this unconditionally before
    :func:`decode_frame`; an enveloped frame comes back as a view into
    ``wire``, not a copy.  Malformed envelopes raise
    :class:`WireFormatError` (strict, like every other frame type).
    """
    if not wire or wire[0] != CONTEXT_FRAME_TYPE:
        return None, wire
    r = _Reader(wire, 1)
    trace_id = r.u64()
    span_id = r.u64()
    inner = r.view_field()
    r.finish()
    if not inner:
        raise WireFormatError("context envelope around an empty frame")
    return extract({"trace_id": trace_id, "span_id": span_id}), inner
