"""Modular exponentiation for the RSA private-key operation: a compiled
Montgomery kernel (``_modexp.c``) where it pays, builtin ``pow`` elsewhere.

:func:`power` is ``pow(base, exp, modulus.m)``, bit for bit.  It runs the
kernel when the modulus is odd, longer than :data:`MIN_BITS` and at most
:data:`LIMB_CAP` 64-bit limbs, and the kernel is live; otherwise, and for
a negative exponent, it calls ``pow``.  :class:`Modulus` marshals a
modulus and ``R**2 mod m`` once, so a key pays for that at construction
and Miller-Rabin once per candidate.

Correctness gate: :func:`_self_check` compares the kernel with ``pow``
over every limb count up to the cap, edge bases and exponents included,
and refuses the library on any difference.  The private-key operation
checks each result with the public exponent on ``pow`` as well, so a
compiled result is never released unchecked.

Same caveat as :mod:`repro.security.keys`: no constant-time arithmetic.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
from pathlib import Path

from .. import native
from ..native import I64

__all__ = ["LIMB_CAP", "MIN_BITS", "Modulus", "ModExpKernel", "load", "power"]

_SOURCE = Path(__file__).with_name("_modexp.c")
_BYTES = ctypes.c_char_p

#: ``MAX_LIMBS`` in ``_modexp.c``: moduli up to 1024 bits, the halves and
#: primes of a 2048-bit key.
LIMB_CAP = 16
#: Up to one CPython digit (30 bits) ``pow`` beats the kernel's ctypes
#: call: 2.6 against 5.0 us at 24 bits, but 9.0 against 5.3 us at 32
#: (a modulus-long exponent, the Miller-Rabin and CRT case).
MIN_BITS = 30


class Modulus:
    """``m`` with the operands the kernel reads, marshalled once.

    ``limbs`` is 0 where :func:`power` leaves ``m`` to ``pow``: even,
    negative, of :data:`MIN_BITS` bits or fewer, or over :data:`LIMB_CAP`
    limbs.  The marshalled bytes are ``m`` itself and ``R**2 mod m``,
    which reveals ``m``: for a prime of a key, secret material.
    """

    __slots__ = ("m", "limbs", "m_bytes", "r2_bytes")

    def __init__(self, m: int):
        bits = m.bit_length()
        self.m = m
        takes = m > 0 and m & 1 and MIN_BITS < bits <= 64 * LIMB_CAP
        self.limbs = (bits + 63) // 64 if takes else 0
        size = 8 * self.limbs
        self.m_bytes = self.r2_bytes = b""
        if size:
            self.m_bytes = m.to_bytes(size, "little")
            self.r2_bytes = ((1 << 16 * size) % m).to_bytes(size, "little")


class ModExpKernel(native.Kernel):
    """ctypes facade over ``repro_modexp``."""

    # out, base, exp, exp_bytes, m, R**2 mod m, limbs
    SIGNATURES = {"repro_modexp": (None, [_BYTES] * 3 + [I64] + [_BYTES] * 2 + [I64])}

    def power(self, base: int, exp: int, modulus: Modulus) -> int:
        """``base**exp mod m`` for ``0 <= base < m``, ``exp >= 0`` and a
        modulus the kernel takes; anything else raises ``ValueError``
        before a pointer is passed."""
        if not (modulus.limbs and 0 <= base < modulus.m and exp >= 0):
            raise ValueError("operands outside what the modexp kernel takes")
        size = 8 * modulus.limbs
        out = ctypes.create_string_buffer(size)
        exp_bytes = exp.to_bytes((exp.bit_length() + 7) // 8, "little")
        self.repro_modexp(
            out, base.to_bytes(size, "little"), exp_bytes, len(exp_bytes),
            modulus.m_bytes, modulus.r2_bytes, modulus.limbs,
        )
        return int.from_bytes(out.raw, "little")


def power(base: int, exp: int, modulus: Modulus) -> int:
    """``pow(base, exp, modulus.m)``, on the kernel where it takes the modulus."""
    if modulus.limbs and exp >= 0:
        kernel = load()
        if kernel is not None:
            return kernel.power(base % modulus.m, exp, modulus)
    return pow(base, exp, modulus.m)


def _draw(label: str, bits: int) -> int:
    """A fixed ``bits``-bit number named by ``label``: self-check operands."""
    raw = hashlib.shake_256(label.encode()).digest((bits + 7) // 8)
    return int.from_bytes(raw, "little") >> -bits % 8


def _self_check(kernel: ModExpKernel) -> bool:
    """``kernel`` agrees with ``pow`` bit for bit on a fixed odd modulus
    and the all-ones one at every limb count up to the cap, with bases 0,
    1, ``m - 1`` and one more and exponents 0, 1, all-ones and one more.
    At one and two limbs every pair runs, with exponents longer than the
    modulus; above, the four diagonal pairs, with six-bit exponents (two
    windows), because ``pow`` itself costs ~6 us a bit at 16 limbs and
    the window walk does not depend on the modulus's length.  Last, a
    square modulus whose power is 0."""
    for limbs in range(1, LIMB_CAP + 1):
        bits = 64 * limbs
        ebits = bits + 3 if limbs <= 2 else 6
        exps = (0, 1, (1 << ebits) - 1, _draw(f"exp {limbs}", ebits))
        for m in (_draw(f"mod {limbs}", bits) | 1 << bits - 1 | 1, (1 << bits) - 1):
            modulus = Modulus(m)
            bases = (0, 1, m - 1, _draw(f"base {limbs}", bits) % m)
            pairs = itertools.product(bases, exps) if limbs <= 2 else zip(bases, exps)
            if any(kernel.power(b, e, modulus) != pow(b, e, m) for b, e in pairs):
                return False
    # 0 from a nonzero base needs a square factor in m; the last product's
    # comparison is what maps it to 0 and not to m.
    p = (1 << 61) - 1
    return kernel.power(p, 2, Modulus(p * p)) == 0


def load() -> ModExpKernel | None:
    """The compiled kernel, or ``None`` when :func:`power` runs on ``pow``."""
    return native.load("modexp", _SOURCE, ModExpKernel, _self_check)
