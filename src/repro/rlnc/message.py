"""Encoded message wire format (Fig. 3).

Each stored/transmitted message is::

    8 bytes   file-id      (big-endian unsigned)
    8 bytes   message-id   (big-endian unsigned)
    m symbols encoded payload (packed p-bit symbols)

The message-id is *plaintext* — it is what lets the owner regenerate the
secret coefficient row; the payload alone reveals nothing without the
key (Section III-A).

A message *is* this record.  :class:`EncodedMessage` holds the packed
payload exactly as it is stored and transmitted; the owner packs it once
(:meth:`FileEncoder.encode_ids <repro.rlnc.encoder.FileEncoder.encode_ids>`),
peers store, reload, serve and frame it without ever looking at a symbol
— they could not use one: the coefficients are the key — and only the
user's decoder (and repair's recombination) unpacks it, through
:attr:`EncodedMessage.payload`, where the arithmetic happens.
"""

from __future__ import annotations

import struct

import numpy as np

from .params import TABLE1_FIELD_BITS
from .symbols import bytes_to_symbols, pack_symbols

__all__ = ["EncodedMessage", "HEADER_BYTES", "MessageFormatError"]

HEADER_BYTES = 16
_HEADER = struct.Struct(">QQ")
_MAX_ID = (1 << 64) - 1


class MessageFormatError(ValueError):
    """Raised for malformed wire bytes or out-of-range identifiers."""


def _frozen(buf) -> memoryview:
    """``buf`` as a read-only view of bytes nobody can write.

    ``bytes`` and frozen arrays (what :func:`pack_symbols` returns), and
    views of them, pass through without a copy; every other exporter —
    ``bytearray``, a writable array, a read-only window on either — is
    copied.
    """
    view = memoryview(buf)
    owner = view.obj
    if (
        view.format == "B"
        and view.c_contiguous
        and (
            isinstance(owner, bytes)
            or (isinstance(owner, np.ndarray) and not owner.flags.writeable)
        )
    ):
        return view
    return memoryview(bytes(view))


def _check_id(name: str, value: int) -> None:
    if not 0 <= value <= _MAX_ID:
        raise MessageFormatError(f"{name} {value} does not fit in 8 bytes")


def _checked(symbols, p: int) -> np.ndarray:
    """``symbols`` as an array, every element a ``p``-bit value.

    Packing truncates to ``p`` bits, so an out-of-range symbol would be
    stored, served and digested as a different one than ``payload``
    reports.  One ``max()`` (and a ``min()`` where the dtype is signed);
    ``uint32`` at ``p = 32`` cannot hold an offender and is not scanned.
    """
    if p not in TABLE1_FIELD_BITS:
        raise MessageFormatError(f"unsupported symbol width p={p}")
    symbols = np.asarray(symbols)
    if symbols.size and not (p == 32 and symbols.dtype == np.uint32):
        signed = symbols.dtype.kind != "u"
        if (signed and int(symbols.min()) < 0) or int(symbols.max()) >> p:
            raise MessageFormatError(
                f"payload symbols span [{symbols.min()}, {symbols.max()}], "
                f"outside GF(2^{p})"
            )
    return symbols


class EncodedMessage:
    """One coded message ``Y_i`` with its plaintext identifiers.

    ``EncodedMessage(file_id, message_id, payload, p)`` builds a message
    from an ``m``-vector of ``p``-bit symbols: the symbols are
    range-checked and packed once, and no alias of the caller's array is
    kept.  :meth:`from_bytes` and :meth:`from_records` build messages
    from packed bytes, and :meth:`from_rows` packs a whole batch once;
    none of them unpacks anything.  Instances are immutable:
    attributes cannot be set, the packed bytes are a read-only buffer,
    and :attr:`payload` is a read-only array derived from them.
    """

    __slots__ = ("file_id", "message_id", "p", "m", "_packed", "_symbols")

    def __new__(cls, file_id: int, message_id: int, payload, p: int):
        symbols = _checked(payload, p)
        _check_id("file_id", file_id)
        _check_id("message_id", message_id)
        return cls._make(file_id, message_id, p, symbols.size, pack_symbols(symbols, p))

    @classmethod
    def _make(cls, file_id, message_id, p, m, packed: memoryview) -> "EncodedMessage":
        """The one place an instance is filled in; every argument is
        already validated and ``packed`` frozen (:func:`_frozen`)."""
        self = object.__new__(cls)
        put = object.__setattr__
        put(self, "file_id", file_id)
        put(self, "message_id", message_id)
        put(self, "p", p)
        put(self, "m", m)
        put(self, "_packed", packed)
        put(self, "_symbols", None)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"EncodedMessage is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    @classmethod
    def from_rows(cls, file_id: int, message_ids, rows, p: int) -> list["EncodedMessage"]:
        """One message per row of an ``(r, m)`` symbol matrix, packed once.

        The whole matrix is range-checked and packed in one pass and
        every message holds a slice of that one buffer — what an encoder
        (or a repair) makes of a ``coefficients @ payloads`` product.
        """
        rows = _checked(rows, p)
        m = rows.shape[1]
        if p == 4 and m % 2:  # every record ends on its own padding nibble
            rows = np.pad(rows, ((0, 0), (0, 1)))
        packed = pack_symbols(rows, p)
        size = (m * p + 7) // 8
        _check_id("file_id", file_id)
        messages = []
        for i, mid in enumerate(message_ids):
            _check_id("message_id", mid)
            messages.append(cls._make(file_id, mid, p, m, packed[i * size : (i + 1) * size]))
        return messages

    @property
    def payload(self) -> np.ndarray:
        """The ``m`` symbols (``uint32``, read-only), unpacked on first use."""
        symbols = self._symbols
        if symbols is None:
            symbols = np.empty(self.m, dtype=np.uint32)
            self.payload_into(symbols)
            symbols.flags.writeable = False
            object.__setattr__(self, "_symbols", symbols)
        return symbols

    def payload_into(self, out: np.ndarray) -> None:
        """Unpack the ``m`` symbols into ``out`` (a ``uint32`` row of a
        decoder's matrix), caching nothing on the message."""
        bytes_to_symbols(self._packed, self.p, out=out)

    def payload_bytes(self):
        """Packed payload (read-only bytes-like), the unit the digest store hashes."""
        return self._packed

    def header_bytes(self) -> bytes:
        """The 16-byte plaintext header (file-id, message-id)."""
        return _HEADER.pack(self.file_id, self.message_id)

    def to_bytes(self) -> bytes:
        """Serialise header + payload for storage or transmission."""
        return b"".join((self.header_bytes(), self._packed))

    @classmethod
    def from_bytes(cls, wire, p: int) -> "EncodedMessage":
        """Parse wire bytes produced by :meth:`to_bytes` (any bytes-like).

        The payload is kept as a slice of ``wire`` when that is ``bytes``
        or a read-only view of ``bytes``, and copied otherwise.  The
        record does not carry ``m``: the message has every symbol its
        payload bytes hold (at ``p = 4``, two per byte).
        """
        if p not in TABLE1_FIELD_BITS:
            raise MessageFormatError(f"unsupported symbol width p={p}")
        view = _frozen(wire)
        size = len(view) - HEADER_BYTES
        if size < 0:
            raise MessageFormatError(
                f"message too short: {len(view)} bytes < {HEADER_BYTES}-byte header"
            )
        # bytes_to_symbols zero-pads a trailing partial symbol (file data
        # needs that); in a message it would be a byte the peer never sent.
        if p > 8 and size % (p // 8):
            raise MessageFormatError(
                f"payload of {size} bytes is not a whole number of "
                f"{p // 8}-byte symbols"
            )
        file_id, message_id = _HEADER.unpack_from(view)
        return cls._make(file_id, message_id, p, size * 8 // p, view[HEADER_BYTES:])

    @classmethod
    def from_records(cls, blob, p: int, m: int) -> list["EncodedMessage"]:
        """Parse a concatenation of equal-size records (the ``.dat`` layout).

        Every message is a slice of ``blob``; the shape is checked once
        for the whole run and, at ``p = 4`` with odd ``m``, each record's
        padding nibble on its byte.  The error names the offending
        record's byte offset.
        """
        if p not in TABLE1_FIELD_BITS or m < 0:
            raise MessageFormatError(f"unsupported record shape p={p}, m={m}")
        view = _frozen(blob)
        size = (m * p + 7) // 8
        record = HEADER_BYTES + size
        if len(view) % record:
            raise MessageFormatError(
                f"size {len(view)} is not a multiple of record size {record}"
            )
        padded = p == 4 and m % 2 == 1
        messages = []
        end = 0
        # one pass over the headers, the payloads skipped as pad bytes (an
        # empty blob is no records of any size, also one no format can name)
        headers = struct.iter_unpack(f">QQ{size}x", view) if len(view) else ()
        for file_id, message_id in headers:
            end += record
            if padded and view[end - 1] & 0x0F:
                raise MessageFormatError(
                    f"record at byte {end - record} has non-zero padding "
                    f"after its {m} symbols"
                )
            messages.append(cls._make(file_id, message_id, p, m, view[end - size : end]))
        return messages

    def wire_size(self) -> int:
        """Total transmitted bytes for this message (``len(to_bytes())``)."""
        return HEADER_BYTES + len(self._packed)

    def with_payload(self, payload: np.ndarray) -> "EncodedMessage":
        """Copy with a different payload (used by tamper-injection tests)."""
        return EncodedMessage(
            file_id=self.file_id, message_id=self.message_id, payload=payload, p=self.p
        )

    def _key(self):
        # tobytes(), not the view: hashing a view asks its exporter, and
        # an array has no hash
        return (self.file_id, self.message_id, self.p, self.m, self._packed.tobytes())

    def __eq__(self, other):
        if not isinstance(other, EncodedMessage):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"EncodedMessage(file_id={self.file_id:#x}, message_id={self.message_id}, "
            f"p={self.p}, m={self.m}, payload_bytes={len(self._packed)})"
        )
