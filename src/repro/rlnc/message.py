"""Encoded message wire format (Fig. 3).

Each stored/transmitted message is::

    8 bytes   file-id      (big-endian unsigned)
    8 bytes   message-id   (big-endian unsigned)
    m symbols encoded payload (packed p-bit symbols)

The message-id is *plaintext* — it is what lets the owner regenerate the
secret coefficient row; the payload alone reveals nothing without the
key (Section III-A).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .symbols import bytes_to_symbols, symbols_to_bytes

__all__ = ["EncodedMessage", "HEADER_BYTES", "MessageFormatError"]

HEADER_BYTES = 16
_HEADER = struct.Struct(">QQ")
_MAX_ID = (1 << 64) - 1


class MessageFormatError(ValueError):
    """Raised for malformed wire bytes or out-of-range identifiers."""


@dataclass(frozen=True)
class EncodedMessage:
    """One coded message ``Y_i`` with its plaintext identifiers.

    ``payload`` is an ``m``-vector of ``p``-bit symbols (``uint32``).
    Instances are immutable; the payload array is set read-only so a
    message stored at a peer cannot be silently mutated in place.
    """

    file_id: int
    message_id: int
    payload: np.ndarray
    p: int

    def __post_init__(self):
        for name, value in (("file_id", self.file_id), ("message_id", self.message_id)):
            if not 0 <= value <= _MAX_ID:
                raise MessageFormatError(f"{name} {value} does not fit in 8 bytes")
        payload = np.ascontiguousarray(self.payload, dtype=np.uint32)
        payload.flags.writeable = False
        object.__setattr__(self, "payload", payload)

    @property
    def m(self) -> int:
        return int(self.payload.size)

    def payload_bytes(self) -> bytes:
        """Packed payload, the unit the digest store hashes."""
        return symbols_to_bytes(self.payload, self.p)

    def header_bytes(self) -> bytes:
        """The 16-byte plaintext header (file-id, message-id)."""
        return _HEADER.pack(self.file_id, self.message_id)

    def to_bytes(self) -> bytes:
        """Serialise header + payload for storage or transmission."""
        return self.header_bytes() + self.payload_bytes()

    @classmethod
    def from_bytes(cls, wire: bytes, p: int) -> "EncodedMessage":
        """Parse wire bytes produced by :meth:`to_bytes`."""
        if len(wire) < HEADER_BYTES:
            raise MessageFormatError(
                f"message too short: {len(wire)} bytes < {HEADER_BYTES}-byte header"
            )
        # bytes_to_symbols zero-pads a trailing partial symbol (file data
        # needs that); in a message it would be a byte the peer never sent.
        if p in (16, 32) and (len(wire) - HEADER_BYTES) % (p // 8):
            raise MessageFormatError(
                f"payload of {len(wire) - HEADER_BYTES} bytes is not a whole "
                f"number of {p // 8}-byte symbols"
            )
        file_id, message_id = _HEADER.unpack_from(wire)
        payload = bytes_to_symbols(wire[HEADER_BYTES:], p)
        return cls(file_id=file_id, message_id=message_id, payload=payload, p=p)

    def wire_size(self) -> int:
        """Total transmitted bytes for this message (``len(to_bytes())``)."""
        return HEADER_BYTES + (self.m * self.p + 7) // 8

    def with_payload(self, payload: np.ndarray) -> "EncodedMessage":
        """Copy with a different payload (used by tamper-injection tests)."""
        return EncodedMessage(
            file_id=self.file_id, message_id=self.message_id, payload=payload, p=self.p
        )
