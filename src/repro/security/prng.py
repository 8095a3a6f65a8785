"""Deterministic keyed symbol streams (the paper's "cryptographically
strong random number generator ... seeded with a cryptographic hash of i,
and a secret key").

Section III-A draws each coding coefficient ``beta_ij`` from a keyed
PRNG so that the coefficient matrix is (a) reproducible by the owner
from ``(secret, file id, message id)`` alone and (b) computationally
hidden from everyone else — the coefficients double as the decryption
key and are never transmitted.

The construction here is SHA-256 in counter mode: block ``t`` of the
stream for ``label`` is ``SHA256(key || label || t)``.  The paper used
NTL's generator [36]; any keyed PRF-style stream preserves the contract.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

import numpy as np

__all__ = ["KeyedStream", "derive_key", "SUPPORTED_SYMBOL_BITS"]

#: Symbol widths the byte-packing supports (all the paper's fields).
SUPPORTED_SYMBOL_BITS = (4, 8, 16, 32)


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
        if bits not in SUPPORTED_SYMBOL_BITS:
            raise ValueError(
                f"symbol width {bits} unsupported; expected one of "
                f"{SUPPORTED_SYMBOL_BITS}"
            )
        if bits == 4:
            raw = np.frombuffer(
                self.bytes_for(label, (count + 1) // 2), dtype=np.uint8
            )
            out = np.empty(raw.size * 2, dtype=np.uint32)
            out[0::2] = raw >> 4
            out[1::2] = raw & 0x0F
            return out[:count].copy()
        width = bits // 8
        raw = self.bytes_for(label, count * width)
        dtype = {1: ">u1", 2: ">u2", 4: ">u4"}[width]
        return np.frombuffer(raw, dtype=dtype).astype(np.uint32)

    def symbols_many(self, labels, count: int, bits: int) -> np.ndarray:
        """One row of ``count`` symbols per label, as a 2-D ``uint32`` array.

        Bit-identical to stacking per-label :meth:`symbols` calls (each
        label keys an independent stream either way), but unpacks all
        the raw bytes in one vectorised pass — the fast path for bulk
        coefficient-matrix generation.
        """
        if bits not in SUPPORTED_SYMBOL_BITS:
            raise ValueError(
                f"symbol width {bits} unsupported; expected one of "
                f"{SUPPORTED_SYMBOL_BITS}"
            )
        labels = list(labels)
        if not labels:
            return np.empty((0, count), dtype=np.uint32)
        if bits == 4:
            per = (count + 1) // 2
            raw = np.frombuffer(
                b"".join(self.bytes_for(label, per) for label in labels),
                dtype=np.uint8,
            ).reshape(len(labels), per)
            out = np.empty((len(labels), per * 2), dtype=np.uint32)
            out[:, 0::2] = raw >> 4
            out[:, 1::2] = raw & 0x0F
            return out[:, :count].copy()
        width = bits // 8
        raw = b"".join(self.bytes_for(label, count * width) for label in labels)
        dtype = {1: ">u1", 2: ">u2", 4: ">u4"}[width]
        return (
            np.frombuffer(raw, dtype=dtype)
            .astype(np.uint32)
            .reshape(len(labels), count)
        )

    def floats(self, label: bytes | int | str, count: int) -> np.ndarray:
        """``count`` floats uniform in ``[0, 1)`` (for seeded simulations)."""
        ints = self.symbols(label, count, 32).astype(np.float64)
        return ints / float(1 << 32)
