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

The same product has three bodies, one generator ``G`` behind all of
them: the numpy body of :func:`bit_matmul`, and ``_gfmul.c``
(:func:`load`), built with one of two.  Where the target has GFNI and
AVX-512BW it cuts ``G`` into the 8 x 8 maps from each input byte of a
symbol to each output byte and applies them with ``vgf2p8affineqb`` to
byte planes of the records, ``n * ceil(p / 8)`` affines per 64 output
bytes, with no tables; everywhere else it walks the four-Russians plan
above over cache-resident blocks several times faster than numpy.
:attr:`GF2Kernel.body` says which was built.  Where the library is not
live, ``bit_matmul`` runs the numpy body — same bytes, old speed.

The compiled kernel takes its symbols at a storage width ``w`` of 4, 8,
16 or 32 bits and builds the generator itself from a table field's (or
the tower's) tables.  ``bit_matmul`` is its ``w = 32`` case on native
``uint32`` symbols; :func:`record_matmul` is its ``w = p`` case on the
packed records messages are made of (big-endian at ``p >= 16``, two
symbols to a byte at ``p = 4``), so the coding layer multiplies file
bytes into message records, and records back into file bytes, without
widening a symbol.  The kernel serves :class:`~repro.gf.TableField` and
:class:`~repro.gf.TowerField`; any other field, and every field when the
kernel is not live, runs the numpy body, on records through an unpack
and a pack around it.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from .. import native
from ..native import I64, PTR, STATUS, address
from ..obs import REGISTRY as _OBS
from .field import _MUL_CALLS, BinaryField, TableField
from .tower import TowerField

__all__ = ["bit_matmul", "record_matmul", "use_bit_engine", "load", "GF2Kernel"]

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


def use_bit_engine(r: int, n: int, m: int, p: int, native: bool | None = None) -> bool:
    """Whether the packed engine beats the gather kernels for this shape.

    ``native`` says whether the compiled kernel would run the product
    (default: whether it is live).  It does for every product at least
    one 64-symbol word wide.  The numpy body needs ``_MIN_WORK``
    products to amortise a call and additionally loses on one-row
    products and, with fewer
    than eight inner rows, on square ones — but not on tall ones (a
    chunk's bundles stacked): the gather kernels' ``(r, m)`` temporaries
    leave the cache while the engine's set-up stays proportional to
    ``n``; the measured crossover is ``r`` 8-16.
    """
    if p > 32 or m < 64 or r * n == 0:
        return False
    if load() is not None if native is None else native:
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


def compiled(field: BinaryField) -> GF2Kernel | None:
    """The compiled kernel when it serves ``field``: a table field or the
    tower, and the library live."""
    return load() if isinstance(field, (TableField, TowerField)) else None


def tables(field: TableField | TowerField) -> tuple[np.ndarray, np.ndarray, int]:
    """What the compiled kernels multiply with: a table field's ``_logz`` /
    ``_expz`` and ``c``, 0 for that field or the tower's ``c`` over it."""
    if isinstance(field, TowerField):
        return field.base._logz, field.base._expz, int(field.c)
    return field._logz, field._expz, 0


def bound_tables(field: TableField | TowerField) -> tuple[native.Bound, native.Bound, int]:
    """:func:`tables` with the two tables bound once per field: kept on
    the table field that owns them, so they live exactly as long."""
    logz, expz, c = tables(field)
    base = field.base if isinstance(field, TowerField) else field
    bound = getattr(base, "_bound_tables", None)
    if bound is None:
        bound = base._bound_tables = (native.Bound(logz), native.Bound(expz))
    return (*bound, c)


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


#: ``struct gf_arrival`` of ``_gfmul.c``.
_Arrival = native.struct(
    "_Arrival", ("red", "pivots", "logz", "expz", "scratch"), ("k", "order", "c")
)


class GF2Kernel(native.Kernel):
    """ctypes facade over ``_gfmul.c``: the field product, and the two
    elimination steps :mod:`repro.gf.linalg` runs over a table field or
    the tower.

    Every entry takes a ``TableField``'s ``_logz`` / ``_expz`` (as
    :func:`tables` binds them, or plain) and ``c``: 0 for that field
    itself, or ``TowerField.c`` when the tables are the tower's
    ``base``."""

    SIGNATURES = {
        "repro_gf2_matmul": (STATUS, [PTR] * 3 + [I64] * 6 + [PTR] * 2 + [I64]),
        "repro_gf_full_rank": (None, [PTR, I64, I64, PTR, PTR, I64, I64, PTR, PTR]),
        "repro_gf_arrival": (I64, [PTR, I64]),
        "repro_gf2_vector_bytes": (ctypes.c_int, []),
        "repro_gf2_body": (ctypes.c_char_p, []),
    }
    ERRORS = {-2: "repro_gf2_matmul: no scratch memory"}
    #: Bytes per vector the build works each line at: 64, 32 or 16.
    vector_bytes = property(lambda self: self.repro_gf2_vector_bytes())
    #: The product's body in this build: ``"gfni"`` (GFNI affine maps on
    #: byte planes, where the target has GFNI and AVX-512BW) or
    #: ``"four-russians"`` (every other target).
    body = property(lambda self: self.repro_gf2_body().decode())

    def matmul(self, C: np.ndarray, src: np.ndarray, out: np.ndarray, logz: np.ndarray,
               expz: np.ndarray, c: int, w: int, big_endian: bool = False) -> None:
        """Fill ``out`` with ``C @ src`` over the field of ``logz`` /
        ``expz`` / ``c``, of ``2^p`` elements.

        ``C`` is ``(r, n)`` uint32 elements, ``n >= 1``; ``src`` and
        ``out`` are ``(n, B)`` and ``(r, B)`` uint8, rows of ``8B / w``
        symbols stored ``w`` bits apiece, ``w >= p`` one of 4, 8, 16,
        32; ``big_endian`` (only with ``w = p``) stores a symbol's bytes
        most significant first.  ``C`` and ``src`` are only read; all
        three must be C-contiguous, every symbol of ``src`` below
        ``2^p``.
        """
        logs = self._logs(logz, expz, c)
        p = 32 if logs == 3 else logz.shape[0].bit_length() - 1
        r, n = C.shape
        size = src.shape[1]
        if not (
            w in (4, 8, 16, 32) and p <= w and (p == w or not big_endian) and n >= 1
            and src.shape == (n, size) and out.shape == (r, size) and size * 8 % w == 0
            and C.dtype == np.uint32 and src.dtype == out.dtype == np.uint8
            and C.flags.c_contiguous and src.flags.c_contiguous and out.flags.c_contiguous
        ):
            raise ValueError(f"bad product for p={p}, w={w}: {C.shape} x {src.shape} -> {out.shape}")
        if p < 32 and C.size and int(C.max()) >> p:
            raise ValueError(f"coefficients outside GF(2^{p})")
        self.repro_gf2_matmul(address(C), address(src), address(out), r, n, size * 8 // w,
                              p, w, big_endian, address(logz), address(expz), c)

    @staticmethod
    def _logs(logz: np.ndarray, expz: np.ndarray, c: int) -> int:
        """Int32 logs the C steps keep per element: 1 for the table field
        of ``logz`` / ``expz`` (bound or not), 3 for the tower of ``c``
        over it."""
        logz, expz = native.array_of(logz), native.array_of(expz)
        order = logz.shape[0] - 1
        if not (
            logz.dtype == np.intp and expz.dtype == np.uint32
            and logz.ndim == expz.ndim == 1 and expz.shape[0] == 4 * order - 1
            and logz.flags.c_contiguous and expz.flags.c_contiguous
        ):
            raise ValueError("logz / expz are not a table field's _logz / _expz")
        if c and not (order == 0xFFFF and 0 < c <= order):
            raise ValueError(f"c={c} is not a non-zero element of GF(2^16)'s tables")
        return 3 if c else 1

    def full_rank(self, blocks: np.ndarray, logz: np.ndarray, expz: np.ndarray,
                  c: int = 0) -> np.ndarray:
        """Whether each ``(k, k)`` block of the ``(B, k, k)`` stack has
        full rank over the field of ``logz`` / ``expz`` / ``c``.
        ``blocks`` is C-contiguous uint32 of valid elements and is
        reduced in place."""
        logs = self._logs(logz, expz, c)
        count, k, width = blocks.shape
        if width != k or blocks.dtype != np.uint32 or not blocks.flags.c_contiguous:
            raise ValueError(f"not a C-contiguous uint32 (B, k, k) stack: {blocks.shape}")
        full = np.empty(count, dtype=np.bool_)
        lrow = np.empty(logs * k, dtype=np.int32)
        self.repro_gf_full_rank(address(blocks), count, k, address(logz), address(expz),
                                logz.shape[0] - 1, c, address(lrow), address(full))
        return full

    def arrival_step(self, logz: np.ndarray, expz: np.ndarray, reduced: np.ndarray,
                     pivots: np.ndarray, c: int = 0):
        """``step(rank) -> pivot or -1``: the decoder's arrival step
        (``repro.gf.linalg.eliminate_arrival``) in C, bound to one
        decoder's C-contiguous uint32 ``(k, 2k)`` matrix ``reduced`` and
        ``(k,)`` intp ``pivots``, over the field of ``logz`` / ``expz`` /
        ``c``.  Everything but the rank is checked and passed to C once,
        here."""
        logs = self._logs(logz, expz, c)
        k = reduced.shape[0]
        if not (
            reduced.shape == (k, 2 * k) and reduced.dtype == np.uint32
            and reduced.flags.c_contiguous and pivots.shape == (k,)
            and pivots.dtype == np.intp and pivots.flags.c_contiguous
        ):
            raise ValueError(f"bad arrival state: {reduced.shape} rows, {pivots.shape} pivots")
        scratch = np.empty(logs * 2 * k, dtype=np.int32)
        state = _Arrival(address(reduced), address(pivots), address(logz),
                         address(expz), address(scratch), k, logz.shape[0] - 1, c)
        arrival, bound = self.repro_gf_arrival, ctypes.addressof(state)

        def step(rank: int) -> int:
            if not 0 <= rank < k:
                raise ValueError(f"rank {rank} has no work row among {k}")
            return arrival(bound, rank)

        step.pinned = (state, reduced, pivots, logz, expz, scratch)  # what ``state`` points into
        return step


def _self_check(kernel: GF2Kernel) -> bool:
    """The library's load-time check: the product here, the elimination
    steps in :func:`repro.gf.linalg._elimination_agrees`, over one
    private tower."""
    from .linalg import _elimination_agrees

    tower = TowerField()
    return _product_agrees(kernel, tower) and _elimination_agrees(kernel, tower)


def _product_agrees(kernel: GF2Kernel, tower: TowerField | None = None) -> bool:
    """Fuzz the product against a sum of per-element products
    (``field._mul``), demanding identical bytes.

    Records (``w = p``, big-endian at 16 and 32) are checked at p = 4,
    8, 16 and 32, native ``uint32`` (``w = 32``) at p = 4, 13 and 32.
    The shapes cover what either body branches on: ``m`` ragged against
    the four-Russians 512-symbol column block and the GFNI body's column
    tiles (a whole tile, then groups, the last one short of 64
    symbols), every (value bytes, storage bytes) pair a symbol has
    there, an odd ``m`` at ``w = 4`` (its padding nibble must come out
    zero), ``n * p`` not a multiple of eight and beyond one 64-group
    chunk (the XOR into ``out``), a field with fewer elements than
    coefficients (the GFNI body's per-element matrices) and one with
    more, one row, more than one 256-bit-row block, and a zero row of
    coefficients.  Every
    ``src`` and ``out`` is an array of its own, so each buffer ends
    with its last row's last byte: an over-read or over-write of a
    row's tail lands in a sanitizer's redzone.
    """
    rng = np.random.default_rng(0x6F2B17)
    # Private fields: the cached ones would keep their tables resident in
    # every process that loads the library and never uses them.
    tower = tower or TowerField()
    fields = {4: TableField(4), 8: TableField(8), 13: TableField(13), 16: tower.base, 32: tower}
    # (p, r, n, m, records): records at w = p, or native uint32 at w = 32
    for p, r, n, m, records in [
        (4, 3, 5, 577, True),
        (4, 2, 130, 63, True),
        (8, 35, 8, 64, True),
        (8, 1, 67, 70, True),
        (16, 17, 5, 70, True),
        (16, 2, 33, 513, True),
        (32, 9, 2, 66, True),
        (32, 1, 17, 600, True),
        (4, 2, 3, 577, False),
        (13, 21, 5, 300, False),
        (32, 9, 2, 66, False),
    ]:
        field = fields[p]
        C = field.random((r, n), rng)
        C[rng.integers(0, r)] = 0
        P = field.random((n, m), rng)
        want = np.bitwise_xor.reduce(field._mul(C[:, :, None], P[None]), axis=1)
        if records:
            src, want = _pack_records(P, p), _pack_records(want, p)
        else:
            src, want = P.view(np.uint8), want.view(np.uint8)
        got = np.empty_like(want)
        kernel.matmul(C, src, got, *tables(field), w=p if records else 32, big_endian=records)
        if got.tobytes() != want.tobytes():
            return False
    return True


def load() -> GF2Kernel | None:
    """The compiled kernel, or ``None`` when ``bit_matmul`` runs in numpy."""
    return native.load("gfmul", _SOURCE, GF2Kernel, _self_check)


def _compiled_product(kernel: GF2Kernel, field, C: np.ndarray, src: np.ndarray,
                      out: np.ndarray, records: bool) -> None:
    """``out = C @ src`` on the compiled kernel, of records or of native
    ``uint32`` symbols, in row blocks whose packed generator stays
    within the table budget."""
    p, n = field.p, C.shape[1]
    rows = max(1, _TABLE_BYTES // (-(-n * p // 8) * p))
    logz, expz, c = bound_tables(field)
    C = np.ascontiguousarray(C, dtype=np.uint32)
    for r0 in range(0, C.shape[0], rows):
        kernel.matmul(C[r0 : r0 + rows], src, out[r0 : r0 + rows], logz, expz, c,
                      w=p if records else 32, big_endian=records)


#: numpy dtypes of a record's symbols, by width (``p = 4`` packs two a byte).
_RECORD_DTYPE = {8: ">u1", 16: ">u2", 32: ">u4"}


def _unpack_records(block: np.ndarray, p: int) -> np.ndarray:
    """``(n, B)`` uint8 records -> their ``(n, 8B / p)`` uint32 symbols."""
    if p == 4:
        symbols = np.empty((block.shape[0], 2 * block.shape[1]), dtype=np.uint32)
        symbols[:, 0::2] = block >> 4
        symbols[:, 1::2] = block & 0x0F
        return symbols
    return block.view(_RECORD_DTYPE[p]).astype(np.uint32)


def _pack_records(symbols: np.ndarray, p: int) -> np.ndarray:
    """Inverse of :func:`_unpack_records`; an odd count at ``p = 4`` ends
    on a zero nibble."""
    if p == 4:
        if symbols.shape[1] % 2:
            symbols = np.pad(symbols, ((0, 0), (0, 1)))
        return ((symbols[:, 0::2] << 4) | symbols[:, 1::2]).astype(np.uint8)
    return symbols.astype(_RECORD_DTYPE[p]).view(np.uint8)


def record_matmul(field, C: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``C @ block`` over the field, on packed records.

    ``C`` is an ``(r, n)`` matrix of canonical elements and ``block`` an
    ``(n, B)`` uint8 array whose rows hold ``p``-bit symbols packed as a
    message's payload is (big-endian at ``p >= 16``, high nibble first
    at ``p = 4``).  Returns a fresh, read-only ``(r, B)`` uint8 block of
    the product's rows packed the same way.  Every column of a row is
    multiplied, so at ``p = 4`` with an odd count the padding nibble is
    a column too: zero in every row of ``block``, it is zero in every
    row of the result.  ``p`` must be 4, 8, 16 or 32.
    """
    p = field.p
    if p not in (4, 8, 16, 32):
        raise ValueError(f"records hold symbols of 4, 8, 16 or 32 bits, not {p}")
    C = np.asarray(C, dtype=np.uint32)
    block = np.ascontiguousarray(block, dtype=np.uint8)
    r, n = C.shape
    if block.ndim != 2 or block.shape[0] != n:
        raise ValueError(f"shape mismatch for record_matmul: {C.shape} x {block.shape}")
    kernel = compiled(field)
    if kernel is not None and n and block.shape[1]:
        if _OBS.enabled:  # as field.matmul -> bit_matmul counts the numpy body
            _MUL_CALLS.inc()
            _BITMM_CALLS.inc()
            _NATIVE_CALLS.inc()
        out = np.empty((r, block.shape[1]), dtype=np.uint8)
        _compiled_product(kernel, field, C, block, out, records=True)
    elif n:
        out = _pack_records(field.matmul(C, _unpack_records(block, p)), p)
    else:
        out = np.zeros((r, block.shape[1]), dtype=np.uint8)
    out.flags.writeable = False
    return out


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
    kernel = compiled(field)
    if kernel is not None:
        if _OBS.enabled:
            _NATIVE_CALLS.inc()
        out = np.empty((r, m), dtype=np.uint32)
        _compiled_product(kernel, field, C, np.ascontiguousarray(P).view(np.uint8),
                          out.view(np.uint8), records=False)
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
