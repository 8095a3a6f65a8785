"""Survivor-side recombination: fresh coded messages without the owner.

The owner's home uplink is the scarce resource the whole system exists
to protect, so restoring redundancy after churn must not spend it.
Following the regenerating-code construction (Dimakis et al.) adapted to
this paper's keyed-RLNC setting, a *helper set* of surviving peers
locally recombines the coded messages it already stores:

.. math:: Y'_i = \\sum_j R_{ij} \\, Y_{h_j}

Because every stored message is itself a coded row ``Y_h = beta_h X``,
the fresh message's *effective* coefficient row is ``R_i @ B_H`` where
``B_H`` stacks the helpers' secret rows — so anyone holding the owner
secret (i.e. the decoding user) can regenerate it, while the helpers
never learn any ``beta``.

Determinism is the load-bearing property: the recombination matrix
``R`` is drawn from a **public** :class:`~repro.security.prng.KeyedStream`
keyed by ``(file id, repair epoch, helper message ids)``.  Given only
that tuple — the :class:`RepairRecord`, a few dozen bytes — the owner,
any auditor, and every replayed test derive bit-identical ``R``, hence
bit-identical repaired payloads and effective rows.  The owner's entire
uplink contribution is the per-message digest (~16 bytes with MD5):
payload bytes shipped by the owner are zero by construction.

Repaired messages live in a **reserved id-space** (top bit set, epoch
and index packed below it) so they can never collide with ordinary ids
or with the owner-driven reseed ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gf import GF, BinaryField, IncrementalRank
from ..gf.bitmatmul import record_matmul
from ..rlnc.coefficients import REPAIR_ID_BASE, UnknownCoefficientError
from ..rlnc.message import EncodedMessage
from ..security.integrity import DigestStore
from ..security.prng import KeyedStream, derive_key

__all__ = [
    "REPAIR_ID_BASE",
    "RepairError",
    "RepairRecord",
    "RepairableCoefficients",
    "RepairAwareSource",
    "is_repair_id",
    "repair_message_id",
    "split_repair_id",
    "recombination_matrix",
    "recombine",
    "effective_rows",
    "register_repair_digests",
    "records_to_dict",
    "records_from_dict",
]

# Repaired message ids set the top bit of the 64-bit id space; ordinary
# encoding ids (sequential) and owner-driven reseed ids (1e6 * round)
# never reach it.  The constant lives with CoefficientGenerator, which
# enforces the reservation; below the flag bit: 31 bits of epoch, 32 of
# index.
_EPOCH_BITS = 31
_INDEX_BITS = 32

#: Public context key for the recombination stream.  Deliberately *not*
#: a secret: helpers must be able to draw ``R`` without owner material,
#: and knowing ``R`` reveals nothing beyond the (public) payloads it
#: mixes — system secrecy rests entirely on the ``beta`` rows.
_REPAIR_CONTEXT = b"repro.repair.recombine.v1"

#: Draw budget beyond ``count`` when screening ``R`` rows for rank; a
#: dependent draw over GF(2^p) has probability ~2^-p, so the budget is
#: effectively unreachable and exists only to guarantee termination.
_EXTRA_DRAWS = 64


class RepairError(Exception):
    """Raised on malformed repair inputs (bad helper set, id overflow)."""


def repair_message_id(epoch: int, index: int) -> int:
    """The reserved-range message id for repair ``(epoch, index)``."""
    if not 0 <= epoch < (1 << _EPOCH_BITS):
        raise RepairError(f"repair epoch out of range: {epoch}")
    if not 0 <= index < (1 << _INDEX_BITS):
        raise RepairError(f"repair index out of range: {index}")
    return REPAIR_ID_BASE | (epoch << _INDEX_BITS) | index


def is_repair_id(message_id: int) -> bool:
    """Whether ``message_id`` lies in the reserved repair range."""
    return message_id >= REPAIR_ID_BASE


def split_repair_id(message_id: int) -> tuple[int, int]:
    """Inverse of :func:`repair_message_id`: ``(epoch, index)``."""
    if not is_repair_id(message_id):
        raise RepairError(f"{message_id:#x} is not a repair-range id")
    body = message_id ^ REPAIR_ID_BASE
    return body >> _INDEX_BITS, body & ((1 << _INDEX_BITS) - 1)


@dataclass(frozen=True)
class RepairRecord:
    """The public metadata that makes one repair epoch replayable.

    This is everything a decoder (or the owner, or an auditor) needs to
    re-derive the recombination matrix and hence the effective
    coefficient rows of the epoch's repaired messages: the file (chunk)
    id, the epoch number, and the *ordered* helper message ids that were
    combined.  It contains no secrets and no payload data.
    """

    file_id: int
    epoch: int
    helper_ids: tuple[int, ...]
    count: int

    def __post_init__(self):
        if not self.helper_ids:
            raise RepairError("a repair record needs at least one helper message")
        if len(set(self.helper_ids)) != len(self.helper_ids):
            raise RepairError("helper message ids must be distinct")
        if not 1 <= self.count <= len(self.helper_ids):
            raise RepairError(
                f"count must be in [1, {len(self.helper_ids)}], got {self.count} "
                "(a helper set cannot span more fresh messages than it has rows)"
            )
        # Validate the epoch/index ranges eagerly so a bad record fails
        # at construction, not at the first id it mints.
        repair_message_id(self.epoch, self.count - 1)

    @property
    def message_ids(self) -> tuple[int, ...]:
        """The reserved-range ids this epoch's fresh messages carry."""
        return tuple(
            repair_message_id(self.epoch, i) for i in range(self.count)
        )

    def to_dict(self) -> dict:
        return {
            "file_id": self.file_id,
            "epoch": self.epoch,
            "helper_ids": list(self.helper_ids),
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RepairRecord":
        return cls(
            file_id=data["file_id"],
            epoch=data["epoch"],
            helper_ids=tuple(data["helper_ids"]),
            count=data["count"],
        )


def records_to_dict(records) -> dict:
    """JSON-ready form of a collection of records (``repairs.json``)."""
    return {"schema": 1, "records": [r.to_dict() for r in records]}


def records_from_dict(blob: dict) -> dict[int, list[RepairRecord]]:
    """Load :func:`records_to_dict` output, grouped by file id."""
    out: dict[int, list[RepairRecord]] = {}
    for entry in blob.get("records", ()):
        record = RepairRecord.from_dict(entry)
        out.setdefault(record.file_id, []).append(record)
    return out


def _stream_for(record: RepairRecord) -> KeyedStream:
    return KeyedStream(
        derive_key(
            _REPAIR_CONTEXT,
            "repair-recombine",
            record.file_id,
            record.epoch,
            *record.helper_ids,
        )
    )


def recombination_matrix(record: RepairRecord, field: BinaryField) -> np.ndarray:
    """The deterministic ``count x h`` recombination matrix ``R``.

    Rows are drawn from the record's keyed public stream and screened
    with :class:`~repro.gf.IncrementalRank` so ``R`` always has full row
    rank — recombination therefore preserves the helper span exactly
    (the fresh messages are as useful, jointly, as ``count`` independent
    combinations of the helpers can be).  The screening consumes stream
    labels in a fixed order, so every party derives the same ``R``.
    """
    h = len(record.helper_ids)
    stream = _stream_for(record)
    tracker = IncrementalRank(field, h)
    rows: list[np.ndarray] = []
    label = 0
    while len(rows) < record.count:
        if label >= record.count + _EXTRA_DRAWS:
            raise RepairError(
                f"could not draw {record.count} independent recombination "
                f"rows over {h} helpers (field too small?)"
            )
        row = field.asarray(stream.symbols(label, h, field.p))
        label += 1
        if tracker.offer(row):
            rows.append(row)
    out = np.stack(rows)
    out.flags.writeable = False
    return out


def recombine(
    record: RepairRecord,
    helper_messages,
    field: BinaryField | None = None,
) -> list[EncodedMessage]:
    """Peer-side repair: combine helper messages into fresh coded messages.

    ``helper_messages`` must align one-to-one, in order, with
    ``record.helper_ids`` — the order is part of the replayable
    derivation.  Requires no secret material: the arithmetic is one
    ``R @ payloads`` product over the stored records as they are
    (:func:`~repro.gf.bitmatmul.record_matmul`).
    """
    msgs = list(helper_messages)
    if len(msgs) != len(record.helper_ids):
        raise RepairError(
            f"record names {len(record.helper_ids)} helpers but "
            f"{len(msgs)} messages were supplied"
        )
    for msg, expect_id in zip(msgs, record.helper_ids):
        if msg.message_id != expect_id:
            raise RepairError(
                f"helper message id {msg.message_id:#x} does not match the "
                f"record's {expect_id:#x} (order matters)"
            )
        if msg.file_id != record.file_id:
            raise RepairError(
                f"helper message for file {msg.file_id:#x} offered to a "
                f"repair of file {record.file_id:#x}"
            )
    p = msgs[0].p
    if any(m.p != p or m.m != msgs[0].m for m in msgs):
        raise RepairError("helper messages disagree on symbol width or length")
    if field is None:
        field = GF(p)
    payloads = np.frombuffer(b"".join(m.payload_bytes() for m in msgs), dtype=np.uint8)
    fresh = record_matmul(field, recombination_matrix(record, field),
                          payloads.reshape(len(msgs), -1))
    return EncodedMessage.from_block(record.file_id, record.message_ids, fresh, p, msgs[0].m)


def effective_rows(record: RepairRecord, coefficients) -> np.ndarray:
    """Owner/decoder-side effective coefficient rows ``R @ B_H``.

    ``coefficients`` is the file's secret
    :class:`~repro.rlnc.coefficients.CoefficientGenerator` (or anything
    with its ``matrix``/``field`` interface).  Helpers cannot evaluate
    this — it needs the secret ``beta`` rows.
    """
    field = coefficients.field
    base = coefficients.matrix(record.helper_ids)
    return field.matmul(recombination_matrix(record, field), base)


def register_repair_digests(
    record: RepairRecord,
    coefficients,
    source: np.ndarray,
    digest_store: DigestStore,
) -> int:
    """Owner-side digest registration for one repair epoch.

    The owner never sees (or ships) the repaired payloads: it recomputes
    them locally from its plaintext source records
    (:meth:`~repro.rlnc.encoder.FileEncoder.source_matrix`) and the record's
    effective rows, records each digest, and returns the number of
    digest bytes — the *only* bytes the owner's uplink carries for this
    repair.
    """
    field = coefficients.field
    payloads = record_matmul(field, effective_rows(record, coefficients), source)
    digests = digest_store.record_many(record.file_id, record.message_ids, payloads)
    return sum(map(len, digests))


class RepairableCoefficients:
    """A coefficient generator that also understands repair-range ids.

    Wraps the base (secret) generator: ordinary ids pass straight
    through; a repair id resolves through the registered
    :class:`RepairRecord` of its epoch to the effective row
    ``R_i @ B_H``.  Unregistered repair ids raise
    :class:`~repro.rlnc.coefficients.UnknownCoefficientError`, which the
    progressive decoder turns into a rejection.

    ``records`` may be a static iterable of records, or a callable
    returning the current records — the live form lets a decoder built
    *before* a repair ran still resolve the repair's ids (the callable
    is re-consulted whenever an unknown epoch shows up).
    """

    def __init__(self, base, records=None):
        self.base = base
        self.field = base.field
        self.k = base.k
        self.file_id = base.file_id
        self._records: dict[int, RepairRecord] = {}
        self._rows: dict[int, np.ndarray] = {}  # epoch -> effective rows
        self._expanding: set[int] = set()  # cycle guard for repair-of-repairs
        self._source = records if callable(records) else None
        if self._source is None:
            for record in records or ():
                self.register(record)

    def register(self, record: RepairRecord) -> None:
        if record.file_id != self.file_id:
            raise RepairError(
                f"record for file {record.file_id:#x} registered with a "
                f"generator for file {self.file_id:#x}"
            )
        existing = self._records.get(record.epoch)
        if existing is not None and existing != record:
            raise RepairError(
                f"conflicting records for repair epoch {record.epoch}"
            )
        self._records[record.epoch] = record

    @property
    def records(self) -> tuple[RepairRecord, ...]:
        return tuple(self._records[e] for e in sorted(self._records))

    def _epoch_rows(self, epoch: int) -> np.ndarray:
        rows = self._rows.get(epoch)
        if rows is None:
            # Helpers may themselves be repair messages from *earlier*
            # epochs (repair of repairs), so resolve through ``self``;
            # the guard rejects a record that (corruptly) cites its own
            # epoch instead of recursing forever.
            if epoch in self._expanding:
                raise RepairError(
                    f"repair epoch {epoch} cites its own messages as helpers"
                )
            self._expanding.add(epoch)
            try:
                rows = effective_rows(self._records[epoch], self)
            finally:
                self._expanding.discard(epoch)
            rows.flags.writeable = False
            self._rows[epoch] = rows
        return rows

    def _lookup(self, epoch: int) -> RepairRecord | None:
        record = self._records.get(epoch)
        if record is None and self._source is not None:
            for fresh in self._source():
                self.register(fresh)
            record = self._records.get(epoch)
        return record

    def row(self, message_id: int) -> np.ndarray:
        if not is_repair_id(message_id):
            return self.base.row(message_id)
        epoch, index = split_repair_id(message_id)
        record = self._lookup(epoch)
        if record is None or index >= record.count:
            raise UnknownCoefficientError(
                f"repair id {message_id:#x}: no registered record for "
                f"epoch {epoch}"
            )
        return self._epoch_rows(epoch)[index]

    def warm(self, message_ids) -> None:
        """Cache the base rows of the ordinary ids among ``message_ids``."""
        self.base.warm(message_ids)

    def matrix(self, message_ids) -> np.ndarray:
        ids = list(message_ids)
        out = np.empty((len(ids), self.k), dtype=self.field.dtype)
        for r, mid in enumerate(ids):
            out[r] = self.row(mid)
        return out


class RepairAwareSource:
    """A generator source whose per-chunk generators resolve repair ids.

    Wraps anything with ``coefficient_generator(index, version)`` (the
    owner's :class:`~repro.rlnc.chunking.ChunkedEncoder`) for a
    :class:`~repro.rlnc.chunking.StreamingDecoder`.  ``records`` is the
    ``{chunk_id: [RepairRecord, ...]}`` registry, shared by reference
    and looked up when a repair id first shows up — so a repair that
    runs after the decoder was built (e.g. mid-download) is still
    resolvable.  Ordinary ids pass straight through: wrapping never
    changes a repair-free download.
    """

    def __init__(self, source, records: dict[int, list] | None = None):
        self._source = source
        # `is not None` (not `or`): an empty dict is the usual *live*
        # registry that repairs will fill later — it must stay shared.
        self._records = records if records is not None else {}

    def coefficient_generator(self, index: int, version: int = 0):
        base = self._source.coefficient_generator(index, version)
        return RepairableCoefficients(
            base, lambda: self._records.get(base.file_id, ())
        )
