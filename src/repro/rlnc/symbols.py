"""Packing between byte strings and ``F_q`` symbol arrays.

The file representation step of Fig. 2 ("``F_q`` representation") and
its inverse.  Symbols are big-endian within bytes so the mapping is
endian-independent and round-trips exactly; the trailing partial symbol
of a non-aligned file is zero-padded, with the true byte length carried
out-of-band (in the manifest).
"""

from __future__ import annotations

import numpy as np

__all__ = ["bytes_to_symbols", "pack_symbols", "symbols_to_bytes", "reshape_file_matrix"]

_WIDTH_DTYPE = {8: ">u1", 16: ">u2", 32: ">u4"}


def bytes_to_symbols(data, p: int, count: int | None = None, out=None) -> np.ndarray:
    """Interpret ``data`` (any bytes-like) as ``p``-bit symbols, zero-padded
    at the end; the result is a fresh, writable ``uint32`` array.

    ``count``, when given, fixes the output length (must be at least the
    number of symbols ``data`` fills).  ``out``, instead of ``count``, is
    a 1-D ``uint32`` array to fill and return in place of a fresh one (a
    row of a decoder's matrix): ``data`` must hold exactly ``out.size``
    symbols, up to the padding nibble of an odd length at ``p = 4``.
    """
    if out is not None and count is not None:
        raise ValueError("out has its own length: count does not apply")
    if p == 4:
        raw = np.frombuffer(data, dtype=np.uint8)
        symbols = np.empty(raw.size * 2, dtype=np.uint32) if out is None else out
        symbols[0::2] = raw >> 4
        # an odd-length ``out`` has no slot for the last byte's low nibble
        symbols[1::2] = raw[: symbols.size // 2] & 0x0F
    elif p in _WIDTH_DTYPE:
        width = p // 8
        pad = (-len(data)) % width
        if pad:
            data = bytes(data) + b"\x00" * pad
        raw = np.frombuffer(data, dtype=_WIDTH_DTYPE[p])
        symbols = np.empty(raw.size, dtype=np.uint32) if out is None else out
        symbols[...] = raw
    else:
        raise ValueError(f"unsupported symbol width p={p}")
    if count is None:
        return symbols
    if count < symbols.size:
        raise ValueError(
            f"data fills {symbols.size} symbols but only {count} requested"
        )
    out = np.zeros(count, dtype=np.uint32)
    out[: symbols.size] = symbols
    return out


def pack_symbols(symbols: np.ndarray, p: int) -> memoryview:
    """The packing every writer shares: ``symbols`` (any shape, row-major)
    as big-endian ``p``-bit fields, in a read-only view of a buffer that
    is the view's alone.

    The view is over the converted array itself, not a ``tobytes()`` copy
    of it: a caller that drops ``symbols`` holds one buffer, not three
    (what an 8 MiB ``p = 32`` publish product cannot afford).  At
    ``p = 4`` an odd count is padded with a zero nibble.
    """
    symbols = np.asarray(symbols, dtype=np.uint32).reshape(-1)
    if p == 4:
        if symbols.size % 2:
            symbols = np.concatenate([symbols, np.zeros(1, dtype=np.uint32)])
        raw = ((symbols[0::2] << 4) | (symbols[1::2] & 0x0F)).astype(np.uint8)
    elif p in _WIDTH_DTYPE:
        raw = symbols.astype(_WIDTH_DTYPE[p])
    else:
        raise ValueError(f"unsupported symbol width p={p}")
    raw.flags.writeable = False  # before the byte view: it has no writable base
    return memoryview(raw.view(np.uint8))


def symbols_to_bytes(symbols: np.ndarray, p: int, length: int | None = None) -> bytes:
    """Inverse of :func:`bytes_to_symbols`; ``length`` trims padding."""
    return bytes(pack_symbols(symbols, p)[:length])


def reshape_file_matrix(data: bytes, p: int, k: int, m: int) -> np.ndarray:
    """Build the ``k x m`` source matrix ``X`` of Equation (1).

    Row ``j`` is chunk ``X_j``; the file is laid out row-major and the
    tail padded with zero symbols.
    """
    total = k * m
    flat = bytes_to_symbols(data, p, count=total)
    return flat.reshape(k, m)
