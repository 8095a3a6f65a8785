"""``GF(2^32)`` as a quadratic tower extension of ``GF(2^16)``.

Discrete-log tables for ``GF(2^32)`` would need ``2^32`` entries, so the
paper's largest field (the one its Table II recommends: large field,
small ``k``) is built here as ``GF(2^16)[y] / (y^2 + y + c)`` with ``c``
chosen as the smallest base element of absolute trace 1, which makes the
quadratic irreducible.  Elements pack as ``uint32 = (hi << 16) | lo``
with ``hi, lo`` in the base field; multiplication is three base-field
(table-lookup) products via Karatsuba and inversion uses the norm map —
both fully vectorised.

This is *a* field of order ``2^32``; any such field is isomorphic to any
other, and the coding layer only relies on the field axioms, never on a
particular polynomial basis.
"""

from __future__ import annotations

import numpy as np

from .field import BinaryField, FieldError, TableField

__all__ = ["TowerField"]

_LO_MASK = np.uint32(0xFFFF)


def _trace(base: TableField, c: int) -> int:
    """Absolute trace ``Tr(c) = sum_{i<16} c^(2^i)`` of a GF(2^16) element."""
    acc = 0
    x = np.uint32(c)
    for _ in range(base.p):
        acc ^= int(x)
        x = base.mul(x, x)
    return acc & 1  # the trace lands in GF(2), i.e. {0, 1}


def _find_trace_one(base: TableField) -> int:
    """The smallest element of absolute trace 1.

    The trace of a block of elements at once (``p`` vectorised
    squarings, not one scalar walk per element); blocks, because the
    first hit is early and whole-field temporaries would stay behind as
    0.7 MiB of resident heap in every process that builds the field.
    """
    for lo in range(0, base.q, 4096):
        x = np.arange(lo, min(lo + 4096, base.q), dtype=base.dtype)
        acc = np.zeros_like(x)
        for _ in range(base.p):
            acc ^= x
            x = base._mul(x, x)
        hits = np.flatnonzero(acc & 1)
        if hits.size:
            return lo + int(hits[0])
    raise FieldError("no trace-1 element found (impossible for a real field)")


class TowerField(BinaryField):
    """Vectorised ``GF(2^32)`` built on table-based ``GF(2^16)``."""

    def __init__(self):
        self.base = TableField(16)
        self.c = np.uint32(_find_trace_one(self.base))
        # The "modulus" reported is y^2 + y + c encoded over the packed
        # representation; it is informational only (see module docstring).
        super().__init__(32, (1 << 32) | (1 << 16) | int(self.c))

    @staticmethod
    def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(hi, lo)`` base-field halves of validated elements."""
        return a >> np.uint32(16), a & _LO_MASK

    @staticmethod
    def _join(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        return (hi.astype(np.uint32) << np.uint32(16)) | lo.astype(np.uint32)

    def _base_mul(self, x: np.ndarray, y) -> np.ndarray:
        """Base-field product of halves: both are ``< 2^16`` by
        construction, so this is the bare gather of ``TableField._mul``
        without its two range scans."""
        B = self.base
        return B._expz[B._logz[x] + B._logz[y]]

    def _mul(self, a, b) -> np.ndarray:
        mul = self._base_mul
        a1, a0 = self._split(self.asarray(a))
        b1, b0 = self._split(self.asarray(b))
        t0 = mul(a0, b0)
        t2 = mul(a1, b1)
        # Karatsuba middle term: a0*b1 + a1*b0
        t1 = mul(a0 ^ a1, b0 ^ b1) ^ t0 ^ t2
        # Reduce t2*y^2 using y^2 = y + c.
        hi = t1 ^ t2
        lo = t0 ^ mul(t2, self.c)
        return self._join(hi, lo)

    def _inv(self, a) -> np.ndarray:
        B = self.base
        mul = self._base_mul
        a = self.asarray(a)
        if np.any(a == 0):
            raise FieldError("zero has no multiplicative inverse")
        a1, a0 = self._split(a)
        # Norm of a1*y + a0 down to the base field: a0^2 + a0*a1 + c*a1^2.
        delta = mul(a0, a0) ^ mul(a0, a1) ^ mul(mul(a1, a1), self.c)
        dinv = B.inv(delta)
        # (a1*y + a0)^-1 = (a1*y + (a0 + a1)) / delta
        return self._join(mul(a1, dinv), mul(a0 ^ a1, dinv))
