"""Keyed generation of the secret coefficient rows ``beta_i``.

Section III-A: each ``beta_ij`` is drawn from a cryptographically strong
generator "seeded with a cryptographic hash of i, and a secret key known
only to the encoding peer".  The row for message ``i`` is therefore a
pure function of ``(secret, file id, i)`` — the owner can regenerate it
at decode time from the plaintext message-id, while peers storing the
message cannot (Section III-C ties system security to this).
"""

from __future__ import annotations

import numpy as np

from ..gf import BinaryField
from ..security.prng import KeyedStream, derive_key

__all__ = ["CoefficientGenerator", "REPAIR_ID_BASE", "UnknownCoefficientError"]

#: Message ids with the top bit set are reserved for *repaired* messages
#: (see :mod:`repro.repair.recombine`): their coefficient rows are not a
#: pure function of the secret — they additionally need the repair
#: record naming the helper set.  The base generator refuses them so a
#: stray repair id can never silently decode against a garbage row.
REPAIR_ID_BASE = 1 << 63


class UnknownCoefficientError(KeyError):
    """A message id whose coefficient row cannot be derived.

    Ordinary ids never raise this — their rows are a pure function of
    the secret.  Ids in the reserved *repair* range (see
    :mod:`repro.repair.recombine`) additionally need the repair record
    naming their helper set; offering such a message to a decoder whose
    generator has not registered that record raises this, and the
    decoder rejects the message instead of crashing.
    """


class CoefficientGenerator:
    """Deterministic map ``message_id -> beta`` row over a field.

    Parameters
    ----------
    field:
        The ``GF(2^p)`` instance coefficients live in.
    k:
        Row width (number of source chunks).
    secret:
        The owner's secret key.
    file_id:
        Domain separator so different files of one owner get independent
        coefficient streams.

    :meth:`matrix` is the validated entry point: it range-checks the block
    it generates, once per publish.  :meth:`row`, which a decoder calls per
    arrival, and :meth:`warm`, which generates a batch of arrivals' rows
    ahead of those calls, take the keyed stream's ``uint32`` symbols as
    they come.
    """

    def __init__(self, field: BinaryField, k: int, secret: bytes, file_id: int):
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.field = field
        self.k = k
        self.file_id = file_id
        self._stream = KeyedStream(derive_key(secret, "rlnc-coefficients", file_id))
        self._cache: dict[int, np.ndarray] = {}

    def row(self, message_id: int) -> np.ndarray:
        """The ``k``-wide coefficient row for ``message_id`` (cached).

        The returned array is read-only; rows are the decryption key and
        must never be mutated.
        """
        cached = self._cache.get(message_id)
        if cached is None:
            self._refuse_repair_ids((message_id,))
            # p-bit fields of a keyed hash cannot exceed q: no range scan
            cached = self._stream.symbols(message_id, self.k, self.field.p)
            cached.flags.writeable = False
            self._cache[message_id] = cached
        return cached

    def warm(self, message_ids) -> None:
        """Cache the rows of ``message_ids`` in one batch.

        A decoder calls this with a batch of arrivals before it takes
        their rows one :meth:`row` at a time.  Like :meth:`row` it trusts
        the stream's range.  Repair-range ids are skipped (:meth:`row`
        refuses them), and a lone missing row is left to :meth:`row`:
        one row costs less on hashlib than a kernel call does.
        """
        missing = [
            mid for mid in dict.fromkeys(message_ids)
            if mid not in self._cache and mid < REPAIR_ID_BASE
        ]
        if len(missing) > 1:
            self._keep(missing, self._stream.symbols_many(missing, self.k, self.field.p))

    def matrix(self, message_ids) -> np.ndarray:
        """Stack rows for a sequence of ids into a ``len(ids) x k`` matrix.

        Cache-missing ids are generated through one batched
        :meth:`~repro.security.prng.KeyedStream.symbols_many` call,
        range-checked and frozen as one block; the cache holds row views
        of it, identical to what :meth:`row` would have cached.  When
        every id is distinct and was missing, that read-only block is
        the result; otherwise the rows are gathered into a fresh
        writable matrix in one join.
        """
        ids = list(message_ids)
        missing = [mid for mid in dict.fromkeys(ids) if mid not in self._cache]
        if missing:
            self._refuse_repair_ids(missing)
            symbols = self._stream.symbols_many(missing, self.k, self.field.p)
            block = self._keep(missing, self.field.asarray(symbols))
            if len(missing) == len(ids):
                return block
        rows = bytearray().join(map(self._cache.__getitem__, ids))
        return np.frombuffer(rows, dtype=self.field.dtype).reshape(len(ids), self.k)

    def _keep(self, missing: list[int], block: np.ndarray) -> np.ndarray:
        """Freeze ``block``, the rows of ``missing`` (distinct ids none of
        which is cached), and cache row views of it."""
        block.flags.writeable = False
        self._cache.update(zip(missing, block))
        return block

    @staticmethod
    def _refuse_repair_ids(ids) -> None:
        for mid in ids:
            if mid >= REPAIR_ID_BASE:
                raise UnknownCoefficientError(
                    f"id {mid:#x} is in the reserved repair range; "
                    "its row needs a registered repair record"
                )
