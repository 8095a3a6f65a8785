"""Bit-packed ``GF(2^p)`` matrix multiplication (the encode/decode hot kernel).

``X = C @ P`` over ``GF(2^p)`` is ``GF(2)``-linear in the bits of ``P``:
``bit_r(c * x) = XOR_b bit_b(x) * bit_r(c * y^b)``.  Expanding every
symbol into its ``p`` bit-planes turns the field product into a boolean
matrix product ``Xbits = G @ Pbits`` over GF(2), which this module
evaluates on 64-bit words with the method of four Russians: inner bit
columns are grouped in eights, each group's 256 possible row
combinations are tabulated once (by doubling, so the table costs one
row-XOR per entry), and every output row then consumes one table gather
plus one word-XOR per group.  The ``m`` columns are walked in blocks
sized so the tables of all groups fit one budget; within a block the
source is packed and tabulated once however many rows ``C`` has, so a
tall product (every message of a chunk at once) pays one set-up.

Packing between the symbol and bit domains is done with carry-free SWAR
arithmetic on ``uint64`` words — a multiply by ``0x0102040810204080``
gathers one bit from each of eight bytes into a single byte (the
distinct-power positions cannot collide, so no carries corrupt the
result), and a 256-entry spread table inverts it — so no per-symbol
Python or fancy-index transposes appear anywhere.

The engine is exact: results are bit-identical to evaluating
``field.mul`` per element, for every supported field (the generator
matrix ``G`` is built from ``field._mul`` itself, so tower and clmul
backends work unchanged).
"""

from __future__ import annotations

import numpy as np

from ..obs import REGISTRY as _OBS

__all__ = ["bit_matmul", "use_bit_engine"]

_BITMM_CALLS = _OBS.counter(
    "repro.gf.matmul.bitpacked", "matmul calls routed through the bit-packed engine"
)

# Multiplying the masked byte-lanes of a word by this constant sums
# shifted copies whose set bits land at pairwise-distinct positions, so
# the top byte of the product collects bit b of each of the 8 byte lanes
# (carry-free "gather one bit per byte" — see module docstring).
_GATHER = np.uint64(0x0102040810204080)
_LANE_LSB = np.uint64(0x0101010101010101)
_TOP = np.uint64(56)

# SPREAD[v] places bit c of the byte v at bit position 8c: the exact
# inverse of the gather multiply, used to turn eight bit-plane bytes
# back into eight adjacent symbols with shifted ORs.
_SPREAD = np.zeros(256, dtype=np.uint64)
for _v in range(256):
    _SPREAD[_v] = sum(1 << (8 * _c) for _c in range(8) if _v >> _c & 1)
del _v

#: Bytes of four-Russians tables alive at once.  Every other scratch
#: size in this module (column block, output row block, generator row
#: block) is derived from it.
_TABLE_BYTES = 1 << 22

#: Minimum number of field products before the fixed pack/unpack cost of
#: the engine amortises; below this the fused-gather fallback wins.
_MIN_WORK = 1 << 18


def use_bit_engine(r: int, n: int, m: int, p: int) -> bool:
    """Whether the packed engine beats the gather kernels for this shape.

    With fewer than eight inner rows the gather kernels win on square
    products, but not on tall ones (a chunk's bundles stacked): their
    ``(r, m)`` temporaries leave the cache while the engine's set-up
    stays proportional to ``n``; the measured crossover is ``r`` 8-16.
    """
    if p > 32 or r < 2 or m < 64 or (n < 8 and r < 16):
        return False
    return r * n * m >= _MIN_WORK


def _pack_bit_rows(mat8: np.ndarray, nbits: int) -> np.ndarray:
    """Bit-plane and pack a byte matrix.

    ``mat8`` is ``(n, m)`` uint8 with ``m % 64 == 0``; the result is
    ``(n, nbits, m // 64)`` uint64 where word ``w`` of plane ``b`` holds
    bit ``b`` of symbols ``64w .. 64w+63`` (LSB = lowest column).
    """
    n, m = mat8.shape
    words = np.ascontiguousarray(mat8).view(np.uint64).reshape(n, m // 8)
    planes = np.empty((n, nbits, m // 64), dtype=np.uint64)
    tmp = np.empty_like(words)
    for b in range(nbits):
        np.right_shift(words, np.uint64(b), out=tmp)
        np.bitwise_and(tmp, _LANE_LSB, out=tmp)
        np.multiply(tmp, _GATHER, out=tmp)
        np.right_shift(tmp, _TOP, out=tmp)
        gathered = tmp.astype(np.uint8)
        planes[:, b, :] = gathered.reshape(n, m // 64, 8).view(np.uint64).reshape(n, -1)
    return planes


def _unpack_bit_rows(planes: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of :func:`_pack_bit_rows`: ``(r, nbits, W)`` -> ``(r, 64W)`` uint8."""
    r = planes.shape[0]
    plane_bytes = planes.view(np.uint8).reshape(r, nbits, -1)
    out = _SPREAD.take(plane_bytes[:, 0, :])
    tmp = np.empty_like(out)
    for b in range(1, nbits):
        _SPREAD.take(plane_bytes[:, b, :], out=tmp)
        np.left_shift(tmp, np.uint64(b), out=tmp)
        np.bitwise_or(out, tmp, out=out)
    return out.view(np.uint8).reshape(r, -1)


def _byte_groups(p: int) -> list[tuple[int, int]]:
    """Split ``p`` bits into byte-lane groups ``(first_bit, nbits)``."""
    return [(c, min(8, p - c)) for c in range(0, p, 8)]


def _build_generator(field, C: np.ndarray) -> np.ndarray:
    """Packed GF(2) generator for left-multiplication by ``C``.

    Returns ``(r*p, ceil(n*p/8))`` uint8: row ``(i, rr)`` column-group
    bytes of the boolean matrix ``G[(i,rr), (j,b)] = bit_rr(C_ij * y^b)``.
    """
    p = field.p
    r, n = C.shape
    basis = (np.uint64(1) << np.arange(p, dtype=np.uint64)).astype(C.dtype)
    packed = np.empty((r * p, -(-n * p // 8)), dtype=np.uint8)
    # Build and pack in row blocks so the (rows, n, p, p) bit scratch
    # stays within the table budget.
    block = max(1, _TABLE_BYTES // (n * p * p))
    nbytes = (p + 7) // 8
    for r0 in range(0, r, block):
        sub = C[r0 : r0 + block]
        rn = sub.shape[0]
        prods = field._mul(sub[:, :, None], basis[None, None, :])
        by = np.ascontiguousarray(
            prods.astype(np.uint32).view(np.uint8).reshape(rn, n, p, 4)[:, :, :, :nbytes]
        )
        bits = np.unpackbits(by, axis=3, bitorder="little")[:, :, :, :p]
        # (i, j, b, rr) -> rows (i, rr), cols (j, b)
        rows = bits.transpose(0, 3, 1, 2).reshape(rn * p, n * p)
        packed[r0 * p : (r0 + rn) * p] = np.packbits(rows, axis=1, bitorder="little")
    return packed


def bit_matmul(field, C: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``C @ P`` over the field via the packed GF(2) engine.

    ``C`` is ``(r, n)``, ``P`` is ``(n, m)``, both canonical uint32;
    returns ``(r, m)`` uint32 bit-identical to the per-element product.
    """
    if _OBS.enabled:
        _BITMM_CALLS.inc()
    p = field.p
    r, n = C.shape
    m = P.shape[1]
    inner = n * p
    lanes = _byte_groups(p)

    Gb = _build_generator(field, C)
    ngroups = Gb.shape[1]

    # The m columns are walked in blocks of ``wblock`` 64-symbol words,
    # sized so the four-Russians tables of *all* groups (256 entries per
    # group of eight inner bit-rows) fit the budget at once.  Per block
    # the source is packed once, the tables are built once (by doubling,
    # all groups per step) and all ``r*p`` output bit-rows are produced
    # from them, ``rblock`` symbol rows at a time: one gather + XOR per
    # group into a cache-resident accumulator that is unpacked straight
    # into the result.  Nothing but the packed generator and the result
    # grows with ``r``.
    W = -(-m // 64)
    wblock = min(W, max(1, _TABLE_BYTES // (ngroups * 256 * 8)))
    rblock = min(r, max(1, _TABLE_BYTES // (8 * p * wblock * 8)))
    Pbytes = np.ascontiguousarray(P).view(np.uint8).reshape(n, m, 4)
    out = np.zeros((r, m, 4), dtype=np.uint8)
    tables = np.empty(ngroups * 256 * wblock, dtype=np.uint64)
    acc = np.empty(rblock * p * wblock, dtype=np.uint64)
    buf = np.empty_like(acc)
    for c0 in range(0, m, 64 * wblock):
        cols = min(64 * wblock, m - c0)
        w = -(-cols // 64)  # narrower in a ragged last block
        lane = np.zeros((n, 64 * w), dtype=np.uint8)
        # Bit-rows of the block, zero-padded to whole groups of eight.
        packed = np.zeros((ngroups * 8, w), dtype=np.uint64)
        tabs = tables[: ngroups * 256 * w].reshape(ngroups, 256, w)
        planes = packed[:inner].reshape(n, p, w)
        for first, nbits in lanes:
            lane[:, :cols] = Pbytes[:, c0 : c0 + cols, first // 8]
            planes[:, first : first + nbits] = _pack_bit_rows(lane, nbits)
        grouped = packed.reshape(ngroups, 8, 1, w)
        tabs[:, 0] = 0
        for b in range(8):
            size = 1 << b
            np.bitwise_xor(tabs[:, :size], grouped[:, b], out=tabs[:, size : 2 * size])
        for r0 in range(0, r, rblock):
            rn = min(rblock, r - r0)
            idx = Gb[r0 * p : (r0 + rn) * p]
            xb = acc[: rn * p * w].reshape(rn * p, w)
            bb = buf[: rn * p * w].reshape(rn * p, w)
            # Indices are bytes and tables have 256 rows, so "clip" never
            # alters one; it only spares take() the bounce buffer that
            # the default mode="raise" puts between the table and ``out``.
            np.take(tabs[0], idx[:, 0], axis=0, out=xb, mode="clip")
            for g in range(1, ngroups):
                np.take(tabs[g], idx[:, g], axis=0, out=bb, mode="clip")
                xb ^= bb
            xp = xb.reshape(rn, p, w)
            for first, nbits in lanes:
                out[r0 : r0 + rn, c0 : c0 + cols, first // 8] = _unpack_bit_rows(
                    xp[:, first : first + nbits], nbits
                )[:, :cols]
    return out.view(np.uint32).reshape(r, m)
