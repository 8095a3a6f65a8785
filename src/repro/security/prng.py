"""Deterministic keyed symbol streams (the paper's "cryptographically
strong random number generator ... seeded with a cryptographic hash of i,
and a secret key").

Section III-A draws each coding coefficient ``beta_ij`` from a keyed
PRNG so that the coefficient matrix is (a) reproducible by the owner
from ``(secret, file id, message id)`` alone and (b) computationally
hidden from everyone else — the coefficients double as the decryption
key and are never transmitted.

The construction here is SHA-256 in counter mode: block ``t`` of the
stream for ``label`` is ``SHA256(seed || u64be(t))`` with ``seed =
derive_key(key, label)``, one HMAC-SHA256.  The paper used NTL's
generator [36]; any keyed PRF-style stream preserves the contract.

A batch of rows (:meth:`KeyedStream.symbols_many`) is drawn in one call
to ``_sha256.c``, a multi-buffer kernel that runs one SHA-256 per vector
lane: first every label's seed, then the flat list of every label's
blocks.  It takes integer labels in ``[0, 2^64)`` — every message id,
repair ids included — and keys of at most 64 bytes, which every
:func:`derive_key` output is.  hmac/hashlib draws everything else:
other labels and longer keys, single rows (:meth:`~KeyedStream.symbols`,
:meth:`~KeyedStream.bytes_for`: one ctypes call costs more than one
row), batches where the kernel is not live (:mod:`repro.native`), and
:func:`_self_check`'s oracle.  The bytes are the same either way.
"""

from __future__ import annotations

import ctypes
import hashlib
import hmac
import struct
from pathlib import Path

import numpy as np

from .. import native
from ..native import I64, PTR, STATUS, address

__all__ = ["KeyedStream", "derive_key", "SUPPORTED_SYMBOL_BITS", "load"]

#: Symbol widths the byte-packing supports (all the paper's fields).
SUPPORTED_SYMBOL_BITS = (4, 8, 16, 32)

_SOURCE = Path(__file__).with_name("_sha256.c")

#: The longest key the kernel takes: HMAC hashes a longer one first.
_KERNEL_KEY_BYTES = 64
#: Labels per pass of the kernel (``CHUNK`` in ``_sha256.c``).
_KERNEL_CHUNK = 64


class _StreamKernel(native.Kernel):
    """ctypes facade over ``repro_keyed_stream``; :attr:`lanes` hashes run
    side by side (16 under AVX-512, 8 under AVX, else 4).  It holds no
    key: the key crosses on every call."""

    SIGNATURES = {
        "repro_keyed_lanes": (ctypes.c_int, []),
        # out, key, key bytes, labels, labels, bytes per label
        "repro_keyed_stream": (STATUS, [PTR, PTR, I64, PTR, I64, I64]),
    }
    ERRORS = {-3: "kernel refused a {2}-byte key or {5} bytes a row"}

    lanes = property(lambda self: self.repro_keyed_lanes())

    def stream(self, key: bytes, labels: np.ndarray, per: int) -> np.ndarray:
        """``(len(labels), per)`` bytes: row ``i`` is the first ``per``
        bytes of the stream of ``labels[i]`` (a ``uint64`` array) under
        ``key`` (1 to 64 bytes)."""
        out = np.empty((len(labels), per), np.uint8)
        self.repro_keyed_stream(address(out), key, len(key), address(labels), len(labels), per)
        return out


def _self_check(kernel: _StreamKernel) -> bool:
    """``kernel`` agrees with :meth:`KeyedStream.bytes_for` bit for bit:
    keys of 1, 33 and 64 bytes on one batch of labels from both ends of
    ``[0, 2^64)``; every batch size from 1 to 2 x lanes + 1 (prefixes of
    that batch: partial lane groups); one label's 2 x lanes + 1 blocks and
    a partial one (the blocks of one stream spread over the lanes); and
    one byte of ``_KERNEL_CHUNK + lanes + 1`` labels, across the kernel's
    label chunks.  The labels and each result are arrays of their own, so
    the last label and its last output byte end their buffers."""
    span = 2 * kernel.lanes + 1
    labels = [0, (1 << 64) - 1, 1 << 63, (1 << 63) - 1, 1 << 32]
    labels += [(i * 0x9E3779B97F4A7C15) % (1 << 64) for i in range(span - len(labels))]
    cases = [  # key bytes, labels, bytes per label, prefix sizes
        (1, labels, 33, [span]),
        (33, labels, 1, [span]),
        (64, labels, 64, [span]),
        (32, labels[:1], 32 * span + 5, [1]),
        (32, list(range(_KERNEL_CHUNK + kernel.lanes + 1)), 1, [_KERNEL_CHUNK + kernel.lanes + 1]),
        (32, labels, 32, range(1, span)),
    ]
    for key_bytes, batch, per, sizes in cases:
        key = hashlib.shake_256(b"repro keyed-stream self-check").digest(key_bytes)
        stream = KeyedStream(key)
        expected = b"".join(stream.bytes_for(label, per) for label in batch)
        for n in sizes:
            got = kernel.stream(key, np.array(batch[:n], np.uint64), per)
            if got.tobytes() != expected[: n * per]:
                return False
    return True


def load() -> _StreamKernel | None:
    """The compiled keyed-stream kernel, or ``None`` when every row is
    drawn on hmac/hashlib."""
    return native.load("sha256", _SOURCE, _StreamKernel, _self_check)


def _absorb(mac, parts) -> bytes:
    """Feed the length-prefixed encoding of ``parts`` to ``mac``; its digest."""
    for part in parts:
        if isinstance(part, int):
            part = part.to_bytes(16, "big", signed=False)
        elif isinstance(part, str):
            part = part.encode("utf-8")
        mac.update(struct.pack(">I", len(part)))
        mac.update(part)
    return mac.digest()


def derive_key(secret: bytes, *parts: bytes | int | str) -> bytes:
    """Derive a sub-key from ``secret`` and a sequence of context parts.

    Uses HMAC-SHA256 with an unambiguous (length-prefixed) encoding of
    the parts, so ``derive_key(s, b"ab", b"c") != derive_key(s, b"a", b"bc")``.
    """
    return _absorb(hmac.new(secret, digestmod=hashlib.sha256), parts)


def _stream_bytes(count: int, bits: int) -> int:
    """Stream bytes behind ``count`` symbols ``bits`` wide; ``ValueError``
    for a width outside :data:`SUPPORTED_SYMBOL_BITS`."""
    if bits not in SUPPORTED_SYMBOL_BITS:
        raise ValueError(
            f"symbol width {bits} unsupported; expected one of {SUPPORTED_SYMBOL_BITS}"
        )
    return (count + 1) // 2 if bits == 4 else count * (bits // 8)


def _unpack(raw, shape: tuple[int, ...], bits: int) -> np.ndarray:
    """A fresh ``uint32`` array of ``shape`` whose rows are symbols of
    streams' bytes, back to back (high nibble first at ``bits = 4``,
    big-endian above)."""
    *rows, count = shape
    if bits == 4:
        raw = np.frombuffer(raw, dtype=np.uint8).reshape(*rows, (count + 1) // 2)
        out = np.empty((*rows, 2 * raw.shape[-1]), dtype=np.uint32)
        out[..., 0::2] = raw >> 4
        out[..., 1::2] = raw & 0x0F
        return out[..., :count].copy()
    return np.frombuffer(raw, dtype=f">u{bits // 8}").reshape(shape).astype(np.uint32)


class KeyedStream:
    """A deterministic byte/symbol stream keyed by a secret.

    Every ``(key, label)`` pair defines an independent stream; the same
    pair always reproduces the same bytes, which is what lets the file
    owner regenerate coefficient rows from message ids on demand.
    """

    _BLOCK = hashlib.sha256().digest_size

    def __init__(self, key: bytes):
        if not key:
            raise ValueError("key must be non-empty")
        self.key = bytes(key)
        # Keying an HMAC hashes two padded blocks; every label's seed
        # starts from a copy of this one keyed state instead.
        self._mac = hmac.new(self.key, digestmod=hashlib.sha256)

    def bytes_for(self, label: bytes | int | str, count: int) -> bytes:
        """First ``count`` bytes of the stream for ``label``."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        seed = _absorb(self._mac.copy(), (label,))  # derive_key(self.key, label)
        chunks = []
        produced = 0
        counter = 0
        while produced < count:
            block = hashlib.sha256(seed + struct.pack(">Q", counter)).digest()
            chunks.append(block)
            produced += len(block)
            counter += 1
        return b"".join(chunks)[:count]

    def symbols(self, label: bytes | int | str, count: int, bits: int) -> np.ndarray:
        """``count`` uniform ``bits``-wide symbols as a ``uint32`` array.

        ``bits`` must be one of :data:`SUPPORTED_SYMBOL_BITS`; since each
        width is a power of two, raw stream bits map to field elements
        with no rejection step.
        """
        return _unpack(self.bytes_for(label, _stream_bytes(count, bits)), (count,), bits)

    def symbols_many(self, labels, count: int, bits: int) -> np.ndarray:
        """One row of ``count`` symbols per label, as a 2-D ``uint32`` array.

        Bit-identical to stacking per-label :meth:`symbols` calls (each
        label keys an independent stream either way), but draws the raw
        bytes in one kernel call (see the module docstring) and unpacks
        them in one vectorised pass — the fast path for bulk
        coefficient-matrix generation.
        """
        per = _stream_bytes(count, bits)
        labels = list(labels)
        if not labels:
            return np.empty((0, count), dtype=np.uint32)
        return _unpack(self._raw_many(labels, per), (len(labels), count), bits)

    def _raw_many(self, labels: list, per: int):
        """The first ``per`` bytes of each label's stream, back to back: one
        kernel call where it takes the key and every label, else one
        :meth:`bytes_for` per label."""
        kernel = None
        if len(self.key) <= _KERNEL_KEY_BYTES and all(type(label) is int for label in labels):
            try:
                ids = np.array(labels, dtype=np.uint64)
            except OverflowError:  # negative or >= 2^64: hashlib says which
                pass
            else:
                kernel = load()
        if kernel is None:
            return b"".join(self.bytes_for(label, per) for label in labels)
        return kernel.stream(self.key, ids, per)

    def floats(self, label: bytes | int | str, count: int) -> np.ndarray:
        """``count`` floats uniform in ``[0, 1)`` (for seeded simulations)."""
        ints = self.symbols(label, count, 32).astype(np.float64)
        return ints / float(1 << 32)
