"""Coding parameter arithmetic: the ``m * p * k = b`` bookkeeping of Table I.

A file of ``b`` bits is represented as ``k`` chunks, each an
``m``-element vector over ``F_q`` with ``q = 2^p`` (Section III-A,
Fig. 2).  Table I of the paper tabulates ``k`` for 1 MB of data across
``q`` in ``{2^4, 2^8, 2^16, 2^32}`` and ``m`` in ``{2^13 .. 2^18}``;
:func:`table1_grid` regenerates exactly that table.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CodingParams",
    "table1_grid",
    "TABLE1_FIELD_BITS",
    "TABLE1_MESSAGE_LENGTHS",
    "ONE_MEGABYTE",
    "PAPER_EXAMPLE",
]

#: 1 MB = 2^20 bytes = 2^23 bits, the unit the paper encodes per chunk.
ONE_MEGABYTE = 1 << 20

#: The field bit-widths of Table I, in row order.
TABLE1_FIELD_BITS = (4, 8, 16, 32)

#: The message lengths (symbols per message) of Table I, in column order.
TABLE1_MESSAGE_LENGTHS = tuple(1 << e for e in range(13, 19))


@dataclass(frozen=True)
class CodingParams:
    """Immutable coding configuration ``(p, m)`` for a given file size.

    Attributes
    ----------
    p:
        Bits per field symbol; the field is ``GF(2^p)``.
    m:
        Symbols per message vector.
    file_bytes:
        Size of the (sub-)file being encoded; defaults to the paper's
        1 MB chunk.
    """

    p: int
    m: int
    file_bytes: int = ONE_MEGABYTE

    def __post_init__(self):
        if self.p not in (4, 8, 16, 32):
            raise ValueError(f"unsupported field width p={self.p}")
        if self.m < 1:
            raise ValueError(f"message length must be positive, got {self.m}")
        if self.file_bytes < 1:
            raise ValueError(f"file size must be positive, got {self.file_bytes}")

    @property
    def q(self) -> int:
        """Field size ``2^p``."""
        return 1 << self.p

    @property
    def file_bits(self) -> int:
        return 8 * self.file_bytes

    @property
    def symbols_per_file(self) -> int:
        """Number of field symbols the padded file occupies."""
        return -(-self.file_bits // self.p)

    @property
    def k(self) -> int:
        """Number of source chunks — and messages needed to decode.

        ``k = ceil(b / (m * p))``; for the power-of-two grid of Table I
        the division is exact.
        """
        return -(-self.file_bits // (self.m * self.p))

    @property
    def message_bytes(self) -> int:
        """Payload bytes of one encoded message (``m`` packed symbols)."""
        return -(-(self.m * self.p) // 8)

    @property
    def padded_bytes(self) -> int:
        """Bytes the padded ``k x m`` symbol matrix represents."""
        return self.k * self.message_bytes

    @property
    def expansion_overhead(self) -> float:
        """Fractional storage overhead from padding (0 for exact grids)."""
        return self.padded_bytes / self.file_bytes - 1.0

    def decode_field_ops(self) -> int:
        """Rough field-operation count to decode: ``O(m k^2 + k^3)``.

        The paper's Section V-B notes the ``O(mk^2 + mk)`` payload cost
        and the (negligible for small ``k``) ``O(k^3)`` inversion cost.
        """
        return self.m * self.k * self.k + self.k ** 3

    def describe(self) -> str:
        return (
            f"GF(2^{self.p}), m={self.m}, k={self.k}, "
            f"{self.file_bytes} file bytes, {self.message_bytes} B/message"
        )


def table1_grid(file_bytes: int = ONE_MEGABYTE) -> dict[tuple[int, int], int]:
    """Regenerate Table I: ``k`` for each ``(p, m)`` cell.

    Returns a mapping ``(p, m) -> k`` over the paper's grid.
    """
    return {
        (p, m): CodingParams(p=p, m=m, file_bytes=file_bytes).k
        for p in TABLE1_FIELD_BITS
        for m in TABLE1_MESSAGE_LENGTHS
    }


#: The running example of Sections III-C and V-B:
#: ``k = 8, m = 32768, q = 2^32`` (one second to decode 1 MB on the
#: authors' 2006 hardware; the headline real-time-streaming operating
#: point).
PAPER_EXAMPLE = CodingParams(p=32, m=32768)
