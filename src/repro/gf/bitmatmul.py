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

The same plan exists twice: the numpy body of :func:`bit_matmul`, and
``_gfmul.c``, which walks it over cache-resident blocks several times
faster.  :func:`load` hands out the compiled kernel when
:mod:`repro.native` can build it and its GF(2) self-check passes;
otherwise ``bit_matmul`` runs the numpy body — same bytes, old speed.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from .. import native
from ..obs import REGISTRY as _OBS

__all__ = ["bit_matmul", "use_bit_engine", "load", "GF2Kernel"]

_BITMM_CALLS = _OBS.counter(
    "repro.gf.matmul.bitpacked", "matmul calls routed through the bit-packed engine"
)
_NATIVE_CALLS = _OBS.counter(
    "repro.gf.matmul.native",
    "bit-packed matmul calls that ran in the compiled kernel (the rest ran in numpy)",
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

_SOURCE = Path(__file__).with_name("_gfmul.c")

#: Bytes of four-Russians tables alive at once.  Every other scratch
#: size in this module (column block, output row block, generator row
#: block) is derived from it.
_TABLE_BYTES = 1 << 22

#: Minimum number of field products before the fixed pack/unpack cost of
#: the numpy body amortises; below this the fused-gather fallback wins.
#: The compiled kernel has no such floor: with it the engine wins at
#: every shape of at least one word measured — ``(64,16)@(16,64)`` 82 us
#: against 318 us by gathers at p = 8, ``(8,64)@(64,128)`` 82 / 917,
#: ``(64,8)@(8,64)`` 60 / 181, ``(2,2)@(2,64)`` 21 / 32, and over every
#: p: ``(8,8)@(8,64)`` 27-110 / 106-319 us, ``(64,64)@(64,64)`` at p = 32
#: 6.4 / 6.9 ms the closest; only ``(1,1)@(1,64)`` ties (20 us both).
_MIN_WORK = 1 << 18


def use_bit_engine(r: int, n: int, m: int, p: int) -> bool:
    """Whether the packed engine beats the gather kernels for this shape.

    The compiled kernel does for every product at least one 64-symbol
    word wide.  The numpy body needs ``_MIN_WORK`` products to amortise
    a call and additionally loses on one-row products and, with fewer
    than eight inner rows, on square ones — but not on tall ones (a
    chunk's bundles stacked): the gather kernels' ``(r, m)`` temporaries
    leave the cache while the engine's set-up stays proportional to
    ``n``; the measured crossover is ``r`` 8-16.
    """
    if p > 32 or m < 64 or r * n == 0:
        return False
    if load() is not None:
        return True
    return r * n * m >= _MIN_WORK and not (r < 2 or (n < 8 and r < 16))


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


def _basis_products(field, C: np.ndarray) -> np.ndarray:
    """``(r, n, p)``: ``C_ij * y^b``, whose bits are the generator."""
    basis = (np.uint64(1) << np.arange(field.p, dtype=np.uint64)).astype(C.dtype)
    if field.q <= C.size:
        # Fewer field elements than entries: multiply each element once.
        elements = np.arange(field.q, dtype=C.dtype)
        return field._mul(elements[:, None], basis[None, :])[C]
    return field._mul(C[:, :, None], basis[None, None, :])


def _build_generator(field, C: np.ndarray) -> np.ndarray:
    """Packed GF(2) generator for left-multiplication by ``C``.

    Returns ``(r*p, ceil(n*p/8))`` uint8: row ``(i, rr)`` column-group
    bytes of the boolean matrix ``G[(i,rr), (j,b)] = bit_rr(C_ij * y^b)``.
    """
    p = field.p
    r, n = C.shape
    packed = np.empty((r * p, -(-n * p // 8)), dtype=np.uint8)
    # Build and pack in row blocks so the (rows, n, p, p) bit scratch
    # stays within the table budget.
    block = max(1, _TABLE_BYTES // (n * p * p))
    nbytes = (p + 7) // 8
    for r0 in range(0, r, block):
        sub = C[r0 : r0 + block]
        rn = sub.shape[0]
        prods = _basis_products(field, sub)
        by = np.ascontiguousarray(
            prods.astype(np.uint32).view(np.uint8).reshape(rn, n, p, 4)[:, :, :, :nbytes]
        )
        bits = np.unpackbits(by, axis=3, bitorder="little")[:, :, :, :p]
        # (i, j, b, rr) -> rows (i, rr), cols (j, b)
        rows = bits.transpose(0, 3, 1, 2).reshape(rn * p, n * p)
        packed[r0 * p : (r0 + rn) * p] = np.packbits(rows, axis=1, bitorder="little")
    return packed


class GF2Kernel:
    """ctypes facade over ``_gfmul.c``."""

    def __init__(self, lib: ctypes.CDLL):
        self._matmul = lib.repro_gf2_matmul
        self._matmul.restype = ctypes.c_int
        self._matmul.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 4
        width = lib.repro_gf2_vector_bytes
        width.restype = ctypes.c_int
        #: Bytes per vector the build works each line at: 64, 32 or 16.
        self.vector_bytes = width()

    def matmul(self, prods: np.ndarray, P: np.ndarray, p: int, out: np.ndarray) -> None:
        """Fill ``out`` with the ``(r, m)`` symbols whose bit-planes are
        ``G @ bits(P)`` over GF(2), ``G[(i,rr), (j,b)] = bit rr of prods[i, j, b]``.

        ``prods`` is ``(r, n, p)`` and ``P`` ``(n, m)``, symbols below
        ``2^p``, ``1 <= p <= 32``; both are only read.  ``out`` must be a
        C-contiguous uint32 array.
        """
        r, n, width = prods.shape
        m = P.shape[1]
        if not (1 <= p <= 32 and width == p and n >= 1 and P.shape[0] == n):
            raise ValueError(f"bad shapes for p={p}: {prods.shape} x {P.shape}")
        if out.shape != (r, m) or out.dtype != np.uint32 or not out.flags.c_contiguous:
            raise ValueError(f"out must be C-contiguous uint32 {(r, m)}")
        prods = np.ascontiguousarray(prods, dtype=np.uint32)
        P = np.ascontiguousarray(P, dtype=np.uint32)
        if self._matmul(prods.ctypes.data, P.ctypes.data, out.ctypes.data, r, n, m, p):
            raise MemoryError("repro_gf2_matmul: no scratch memory")


def _bits(a: np.ndarray, p: int) -> np.ndarray:
    """uint32 array -> its low ``p`` bits on a new trailing axis, LSB first."""
    return np.unpackbits(a[..., None].view(np.uint8), axis=-1, bitorder="little")[..., :p]


def _self_check(kernel: GF2Kernel) -> bool:
    """Fuzz the kernel's GF(2) contract against ``np.unpackbits`` and an
    integer matrix product, demanding zero bit differences.

    No field is involved: generator bits and symbols are random.  The
    shapes cover what the C code branches on — ``m`` ragged against a
    64-symbol word and the 512-symbol column block, ``n * p`` not a
    multiple of eight and beyond one 64-group chunk, one row, one bit,
    more than one 256-bit-row block, and a zero row.
    """
    rng = np.random.default_rng(0x6F2B17)
    for p, r, n, m in [
        (1, 1, 1, 1),
        (1, 300, 11, 65),
        (4, 2, 3, 577),
        (8, 35, 2, 64),
        (8, 1, 67, 70),
        (13, 21, 5, 70),
        (16, 2, 4, 513),
        (32, 9, 2, 66),
    ]:
        prods = rng.integers(0, 1 << p, size=(r, n, p), dtype=np.uint64).astype(np.uint32)
        prods[rng.integers(0, r)] = 0
        P = rng.integers(0, 1 << p, size=(n, m), dtype=np.uint64).astype(np.uint32)
        G = _bits(prods, p).transpose(0, 3, 1, 2).reshape(r * p, n * p)
        planes = _bits(P, p).transpose(0, 2, 1).reshape(n * p, m)
        X = ((G.astype(np.uint32) @ planes) & 1).reshape(r, p, m)
        want = (X << np.arange(p, dtype=np.uint32)[:, None]).sum(axis=1, dtype=np.uint32)
        got = np.empty((r, m), dtype=np.uint32)
        kernel.matmul(prods, P, p, got)
        if got.tobytes() != want.tobytes():
            return False
    return True


def load() -> GF2Kernel | None:
    """The compiled kernel, or ``None`` when ``bit_matmul`` runs in numpy."""
    return native.load("gfmul", _SOURCE, GF2Kernel, _self_check)


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
    kernel = load()
    if kernel is not None:
        if _OBS.enabled:
            _NATIVE_CALLS.inc()
        P = np.ascontiguousarray(P)
        out = np.empty((r, m), dtype=np.uint32)
        # Row blocks keep the (rows, n, p) products within the budget.
        rows = max(1, _TABLE_BYTES // (4 * n * p))
        for r0 in range(0, r, rows):
            kernel.matmul(_basis_products(field, C[r0 : r0 + rows]), P, p, out[r0 : r0 + rows])
        return out
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
