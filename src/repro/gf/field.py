"""Binary extension fields ``GF(2^p)`` with vectorised numpy arithmetic.

The paper's coding layer (Section III) works over ``F_q`` with
``q = 2^p`` for ``p`` in ``{4, 8, 16, 32}`` (Tables I and II).  This
module provides a common :class:`BinaryField` interface and the
table-based implementation used for ``p <= 16``; the companion modules
:mod:`repro.gf.tower` and :mod:`repro.gf.clmul` cover ``p = 32`` and the
generic case.  Use the :func:`GF` factory to obtain a field.

All element arrays are canonically ``numpy.uint32`` (every supported
field fits), and addition is always XOR.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

from ..obs import REGISTRY as _OBS
from .polynomials import DEFAULT_MODULI, find_irreducible, poly_degree

__all__ = ["BinaryField", "TableField", "GF", "FieldError"]

DTYPE = np.uint32

#: Shared generator behind the convenience samplers (:meth:`BinaryField.random`
#: and friends) when the caller threads no ``rng`` in.  Seeded so that a
#: run is replayable end-to-end (the determinism lint bans unseeded
#: generators in this layer); callers who need independent streams pass
#: their own ``np.random.Generator``.
_DEFAULT_RNG = np.random.default_rng(0x6F5EED)

# Observability handles (recorded only while repro.obs is enabled).  The
# tower field's mul/inv call back into the base GF(2^16) field, so with
# observability on, one GF(2^32) product also counts its base-field
# table lookups — deliberate: the histogram then reflects real work.
_MUL_CALLS = _OBS.counter("repro.gf.mul.calls", "field mul() invocations")
_MUL_NS = _OBS.histogram("repro.gf.mul.ns", "nanoseconds per field mul() call")
_INV_CALLS = _OBS.counter("repro.gf.inv.calls", "field inv() invocations")
_ADDMUL_CALLS = _OBS.counter(
    "repro.gf.addmul.calls", "fused addmul kernel invocations"
)
_SCALE_CALLS = _OBS.counter(
    "repro.gf.scale_rows.calls", "fused scale_rows kernel invocations"
)


class FieldError(ValueError):
    """Raised for invalid field constructions or operations (e.g. 1/0)."""


class BinaryField:
    """Interface for ``GF(2^p)`` arithmetic over numpy arrays.

    Concrete subclasses implement :meth:`mul`, :meth:`inv` and
    :meth:`pow`; everything else (addition, subtraction, division,
    random elements, validation) is shared.  Methods broadcast like
    numpy ufuncs and accept scalars or arrays.
    """

    def __init__(self, p: int, modulus: int):
        if p < 1:
            raise FieldError(f"field degree must be >= 1, got {p}")
        if poly_degree(modulus) != p:
            raise FieldError(
                f"modulus degree {poly_degree(modulus)} does not match p={p}"
            )
        self.p = p
        self.q = 1 << p
        self.order = self.q  # number of field elements
        self.modulus = modulus
        self.dtype = DTYPE

    # -- subclass responsibilities ------------------------------------

    def _mul(self, a, b) -> np.ndarray:
        """Backend product implementation (see :meth:`mul`)."""
        raise NotImplementedError

    def _inv(self, a) -> np.ndarray:
        """Backend inverse implementation (see :meth:`inv`)."""
        raise NotImplementedError

    # -- instrumented dispatchers --------------------------------------

    def mul(self, a, b) -> np.ndarray:
        """Element-wise field product (broadcasts)."""
        if _OBS.enabled:
            start = time.perf_counter_ns()
            out = self._mul(a, b)
            _MUL_NS.observe(time.perf_counter_ns() - start)
            _MUL_CALLS.inc()
            return out
        return self._mul(a, b)

    def inv(self, a) -> np.ndarray:
        """Element-wise multiplicative inverse; raises on zero input."""
        if _OBS.enabled:
            _INV_CALLS.inc()
        return self._inv(a)

    def pow(self, a, e: int) -> np.ndarray:
        """Element-wise ``a**e`` for a non-negative integer exponent.

        Counts as one multiplicative operation in the observability
        registry regardless of how many internal squarings it performs
        (it calls the ``_mul`` backend directly, so ``_MUL_CALLS`` is
        not inflated by the square-and-multiply ladder).
        """
        base = self.asarray(a)
        result = np.full_like(base, 1)
        e = int(e)
        if e < 0:
            raise FieldError("negative exponents are not supported; use inv()")
        if e and _OBS.enabled:
            _MUL_CALLS.inc()
        while e:
            if e & 1:
                result = self._mul(result, base)
            e >>= 1
            if e:
                base = self._mul(base, base)
        return result

    # -- shared operations ---------------------------------------------

    def asarray(self, a) -> np.ndarray:
        """Coerce ``a`` to the canonical dtype, validating the range."""
        arr = np.asarray(a, dtype=np.uint64)
        if arr.size and int(arr.max()) >= self.q:
            raise FieldError(
                f"element {int(arr.max())} out of range for GF(2^{self.p})"
            )
        return arr.astype(self.dtype)

    def _canon(self, a) -> np.ndarray:
        """Trusted coercion for internally-produced arrays.

        Arrays that already carry the canonical dtype are passed through
        without the ``asarray`` range-scan (their elements were produced
        by this field's own tables/kernels and cannot be out of range);
        anything else falls back to the validating path.
        """
        arr = np.asarray(a)
        if arr.dtype == self.dtype:
            return arr
        return self.asarray(a)

    def add(self, a, b) -> np.ndarray:
        """Field addition, which in characteristic 2 is XOR."""
        return np.bitwise_xor(self.asarray(a), self.asarray(b))

    # subtraction equals addition in characteristic 2
    sub = add

    def div(self, a, b) -> np.ndarray:
        """Element-wise ``a / b``; raises :class:`FieldError` if ``b`` has zeros."""
        return self.mul(a, self.inv(b))

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def ones(self, shape) -> np.ndarray:
        return np.ones(shape, dtype=self.dtype)

    def random(self, shape, rng: np.random.Generator | None = None) -> np.ndarray:
        """Uniform random field elements (for tests and simulations)."""
        rng = rng if rng is not None else _DEFAULT_RNG
        return rng.integers(0, self.q, size=shape, dtype=np.uint64).astype(self.dtype)

    def random_nonzero(self, shape, rng: np.random.Generator | None = None) -> np.ndarray:
        rng = rng if rng is not None else _DEFAULT_RNG
        return rng.integers(1, self.q, size=shape, dtype=np.uint64).astype(self.dtype)

    # -- fused kernels (trusted operands) ------------------------------

    def _product(self, a, x) -> np.ndarray:
        """``a * x`` of *trusted* operands: canonical-dtype arrays (or
        scalars) of valid elements, broadcastable.  Every kernel below
        is this one product; a field with nothing cheaper validates
        (:meth:`_mul`, once per call)."""
        return self._mul(a, x)

    def inv_scalar(self, a: int) -> int:
        """The inverse of one non-zero element, as a Python ``int`` (the
        pivot of an elimination step; :meth:`inv` is the array form)."""
        return int(self._inv(a))

    def addmul(self, y: np.ndarray, a, x) -> np.ndarray:
        """Fused in-place axpy: ``y ^= a * x`` over the field.

        This is the elimination/encoding inner kernel.  Operands are
        *trusted*: they must already be canonical-dtype arrays of valid
        field elements (internally produced), with ``a`` and ``x``
        broadcastable against ``y``.  ``y`` is updated in place and
        returned.  Use :meth:`mul`/:meth:`add` for validated arithmetic.
        """
        if _OBS.enabled:
            _ADDMUL_CALLS.inc()
            _MUL_CALLS.inc()
        y ^= self._product(a, x)
        return y

    def scale_rows(self, rows: np.ndarray, factors) -> np.ndarray:
        """In-place ``rows = factors * rows`` over the field (trusted).

        ``factors`` must broadcast against ``rows`` as given (pass
        ``f[:, None]`` to scale each row of a 2-D block by its own
        factor).  ``rows`` is updated in place and returned.
        """
        if _OBS.enabled:
            _SCALE_CALLS.inc()
            _MUL_CALLS.inc()
        rows[...] = self._product(factors, rows)
        return rows

    def combine(self, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``sum_j coeffs[j] * rows[j]`` of trusted operands, shapes
        ``(r,)`` and ``(r, w)``: an arrival's reduction against the kept
        rows, a message of Equation (1).  Rows are taken in blocks of
        about ``2^14`` products, so the temporaries stay cache-sized
        whatever ``w`` is.
        """
        if _OBS.enabled:
            _MUL_CALLS.inc()
        out = self.zeros(rows.shape[1])
        step = max(1, (1 << 14) // max(1, rows.shape[1]))
        for lo in range(0, rows.shape[0], step):
            block = self._product(coeffs[lo : lo + step, None], rows[lo : lo + step])
            out ^= np.bitwise_xor.reduce(block, axis=0)
        return out

    def dot(self, coeffs: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Linear combination ``sum_j coeffs[j] * vectors[j]`` over the field.

        ``coeffs`` has shape ``(k,)`` and ``vectors`` shape ``(k, m)``;
        the result has shape ``(m,)``.  This is the per-message encoding
        operation of the paper's Equation (1): :meth:`combine` behind a
        range check of ``coeffs`` and a shape check.
        """
        coeffs = self.asarray(coeffs)
        vectors = self._canon(vectors)
        if coeffs.ndim != 1 or vectors.ndim != 2 or coeffs.shape[0] != vectors.shape[0]:
            raise FieldError(
                f"shape mismatch for dot: {coeffs.shape} vs {vectors.shape}"
            )
        return self.combine(coeffs, vectors)

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Matrix product over the field; ``A`` is ``(r, k)``, ``B`` is ``(k, m)``.

        Large products are routed through the bit-packed GF(2) engine
        (:mod:`repro.gf.bitmatmul`), which rewrites the product as XOR
        word operations with method-of-four-Russians lookup tables;
        small products fall back to one fused :meth:`addmul` per inner
        index.  Both paths produce bit-identical results.
        """
        A = self.asarray(A)
        B = self._canon(B)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise FieldError(f"shape mismatch for matmul: {A.shape} x {B.shape}")
        if _OBS.enabled:
            _MUL_CALLS.inc()
        from .bitmatmul import bit_matmul, use_bit_engine

        r, n = A.shape
        m = B.shape[1]
        if use_bit_engine(r, n, m, self.p):
            return bit_matmul(self, A, B)
        out = self.zeros((r, m))
        for j in range(n):
            col = A[:, j]
            if col.any():
                y = self._mul(col[:, None], B[j][None, :])
                out ^= y
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(GF(2^{self.p}), modulus={self.modulus:#x})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryField)
            and self.p == other.p
            and self.modulus == other.modulus
            and type(self) is type(other)
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.p, self.modulus))


class TableField(BinaryField):
    """``GF(2^p)`` for ``p <= 16`` using discrete log/antilog tables.

    Construction verifies that the modulus is primitive by checking that
    the exponentiation table enumerates all ``2^p - 1`` nonzero elements;
    a non-primitive modulus fails loudly rather than producing a broken
    multiplication.
    """

    MAX_P = 16

    def __init__(self, p: int, modulus: int | None = None):
        if p > self.MAX_P:
            raise FieldError(
                f"TableField supports p <= {self.MAX_P}; use GF({p}) for larger fields"
            )
        if modulus is None:
            modulus = DEFAULT_MODULI.get(p) or find_irreducible(p, primitive=True)
        super().__init__(p, modulus)
        self._exp, self._log = self._build_tables()
        # Branch-free zero handling: ``logz[0]`` maps to the sentinel
        # ``Z = 2(q-1)-1`` so any log-sum involving a zero operand lands
        # at index >= Z, where the extended antilog table ``expz`` is
        # zero-padded.  Legitimate sums max out at 2(q-1)-2 = Z-1, so a
        # single gather computes the product with no ``np.where`` pass.
        q = self.q
        zero_log = 2 * (q - 1) - 1
        self._logz = np.empty(q, dtype=np.intp)
        self._logz[0] = zero_log
        self._logz[1:] = self._log[1:]
        self._expz = np.zeros(2 * zero_log + 1, dtype=self.dtype)
        self._expz[:zero_log] = self._exp[:zero_log]
        # GF(2^8) additionally gets the full 256x256 product table, flat
        # (entry ``(a << 8) | x``): one gather per product where the log
        # domain makes three.
        if p == 8:
            self._mul_table = self._expz[self._logz[:, None] + self._logz[None, :]].ravel()
        else:
            self._mul_table = None

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        q = self.q
        exp = np.zeros(2 * (q - 1), dtype=self.dtype)
        log = np.zeros(q, dtype=self.dtype)
        x = 1
        for i in range(q - 1):
            if x == 0 or (i > 0 and x == 1):
                raise FieldError(
                    f"modulus {self.modulus:#x} is not primitive for GF(2^{self.p})"
                )
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & q:
                x ^= self.modulus
        if x != 1:  # after q-1 steps the generator must cycle back to 1
            raise FieldError(f"modulus {self.modulus:#x} is not primitive")
        exp[q - 1 :] = exp[: q - 1]  # doubled table avoids a modulo reduction
        return exp, log

    def _mul(self, a, b) -> np.ndarray:
        return self._product(self.asarray(a), self.asarray(b))

    def _product(self, a, x) -> np.ndarray:
        # ``take``, not ``table[index]``: the same gather without fancy
        # indexing's set-up, 1.4-1.7x at elimination's shapes.
        if self._mul_table is not None:
            return self._mul_table.take(x | (a << 8))
        return self._expz.take(self._logz.take(a) + self._logz.take(x))

    def _inv(self, a) -> np.ndarray:
        a = self.asarray(a)
        if np.any(a == 0):
            raise FieldError("zero has no multiplicative inverse")
        return self._exp[(self.q - 1) - self._log[a].astype(np.int64)]

    def inv_scalar(self, a: int) -> int:
        if not a:
            raise FieldError("zero has no multiplicative inverse")
        return self._exp.item(self.q - 1 - self._log.item(a))

    def pow(self, a, e: int) -> np.ndarray:
        # Faster than square-and-multiply: work in the exponent domain.
        a = self.asarray(a)
        e = int(e)
        if e < 0:
            raise FieldError("negative exponents are not supported; use inv()")
        if e == 0:
            return np.full_like(a, 1)
        if _OBS.enabled:
            _MUL_CALLS.inc()  # same one-op accounting as BinaryField.pow
        le = (self._log[a].astype(np.int64) * e) % (self.q - 1)
        out = self._exp[le]
        return np.where(a == 0, self.zeros(()), out)


@lru_cache(maxsize=None)
def GF(p: int, impl: str = "auto") -> BinaryField:
    """Return the canonical ``GF(2^p)`` instance (cached).

    ``impl`` selects the backend: ``"table"`` (``p <= 16``), ``"tower"``
    (``p = 32``), ``"clmul"`` (any ``p <= 32``), or ``"auto"`` to pick
    the fastest available.
    """
    from .clmul import ClmulField
    from .tower import TowerField

    if impl == "auto":
        if p <= TableField.MAX_P:
            return TableField(p)
        if p == 32:
            return TowerField()
        return ClmulField(p)
    if impl == "table":
        return TableField(p)
    if impl == "tower":
        if p != 32:
            raise FieldError("the tower implementation only supports p=32")
        return TowerField()
    if impl == "clmul":
        return ClmulField(p)
    raise FieldError(f"unknown field implementation {impl!r}")
