"""Decoding coded messages back into file bytes (Section III-B).

Two decoders are provided:

* :class:`BlockDecoder` — the paper's description taken literally:
  collect ``k`` messages, regenerate the coefficient sub-matrix from the
  plaintext message-ids, invert, multiply.
* :class:`ProgressiveDecoder` — the same decode fed one message at a
  time as they arrive from multiple peers in parallel: an online
  elimination on the ``k``-wide coefficient rows detects useless
  (linearly dependent) messages immediately, rows failing digest
  authentication are discarded before any of them is used, and the
  instant the file is decodable is reported — which is when the user
  sends the stop-transmission of Fig. 4(b).  The payloads are multiplied
  once, at the end, by the inverse the elimination has already produced.
"""

from __future__ import annotations

import time
from enum import Enum

import numpy as np

from ..gf import GF, BinaryField, SingularMatrixError, inv_matrix
from ..gf.bitmatmul import record_matmul
from ..gf.linalg import arrival_step
from ..obs import REGISTRY as _OBS
from ..obs import TRACER as _TRACER
from ..obs import spans as _spans
from ..obs.events import RLNC_OFFER, RLNC_REVOKE
from ..security.integrity import DigestStore
from .coefficients import CoefficientGenerator, UnknownCoefficientError
from .message import EncodedMessage
from .params import CodingParams
from .symbols import records_to_bytes

__all__ = ["BlockDecoder", "ProgressiveDecoder", "Offer", "DecodeError"]

_DEC_INNOVATIVE = _OBS.counter(
    "repro.rlnc.decode.innovative", "offered messages that increased rank"
)
_DEC_DEPENDENT = _OBS.counter(
    "repro.rlnc.decode.dependent", "offered messages that were linearly dependent"
)
_DEC_REJECTED = _OBS.counter(
    "repro.rlnc.decode.rejected",
    "offered messages rejected (auth/shape/forgery), revoked rows included",
)
_DEC_REVOKED = _OBS.counter(
    "repro.rlnc.decode.revoked",
    "admitted rows dropped when their digests were checked (counted innovative "
    "when admitted, rejected when dropped)",
)
_DEC_INCONSISTENT = _OBS.counter(
    "repro.rlnc.decode.inconsistent",
    "rejected rows that contradicted the span of authentic rows (pollution "
    "that slipped past digest checks)",
)
_DEC_ELIM_NS = _OBS.histogram(
    "repro.rlnc.decode.eliminate_ns",
    "nanoseconds of coefficient-space elimination per offered message",
)
_DEC_RESIDUAL_CHECKS = _OBS.counter(
    "repro.rlnc.decode.residual_checks",
    "offered rows whose coefficients cancelled, so the O(rank * m) payload "
    "residual had to be computed to tell dependent from forged",
)
_DEC_BLOCK_NS = _OBS.histogram(
    "repro.rlnc.decode.block_ns", "nanoseconds per BlockDecoder.decode()"
)


class DecodeError(Exception):
    """Raised when decoding is impossible with the supplied messages."""


class Offer(Enum):
    """Outcome of offering one message to a :class:`ProgressiveDecoder`."""

    ACCEPTED = "accepted"  # increased rank; progress was made
    DEPENDENT = "dependent"  # authentic but linearly dependent; fetch another
    REJECTED = "rejected"  # failed authentication or wrong file/shape
    COMPLETE = "complete"  # rank was already k; message ignored


def _source_bytes(
    field: BinaryField, params: CodingParams, beta: np.ndarray, payloads: np.ndarray
) -> bytes:
    """The decode step of Section III-B: ``beta^-1 @ payloads`` as bytes.

    ``beta`` holds the ``k`` coefficient rows of the messages as
    received and ``payloads`` their ``(k, message_bytes)`` records, row
    for row.  The bytes cover the whole padded symbol grid;
    :func:`_trim` cuts them.
    """
    try:
        inverse = inv_matrix(field, beta)
    except SingularMatrixError as exc:
        raise DecodeError(
            "coefficient sub-matrix is singular; supply a different message"
        ) from exc
    return records_to_bytes(record_matmul(field, inverse, payloads), params.p, params.m)


def _trim(data: bytes, params: CodingParams, length: int | None) -> bytes:
    return data[: length if length is not None else params.file_bytes]


class BlockDecoder:
    """One-shot decode from a complete set of messages."""

    def __init__(
        self,
        params: CodingParams,
        coefficients: CoefficientGenerator,
        field: BinaryField | None = None,
    ):
        self.params = params
        self.field = field if field is not None else GF(params.p)
        self.coefficients = coefficients

    def decode(self, messages, length: int | None = None) -> bytes:
        """Recover the file from at least ``k`` messages.

        Uses the first ``k`` messages with distinct ids; raises
        :class:`DecodeError` if fewer are supplied or the coefficient
        sub-matrix is singular (caller should add another message).
        """
        start = time.perf_counter_ns() if _OBS.enabled else None
        k = self.params.k
        unique: dict[int, EncodedMessage] = {}
        for msg in messages:
            if msg.file_id != self.coefficients.file_id:
                raise DecodeError(
                    f"message for file {msg.file_id:#x} offered to decoder for "
                    f"file {self.coefficients.file_id:#x}"
                )
            unique.setdefault(msg.message_id, msg)
            if len(unique) == k:
                break
        if len(unique) < k:
            raise DecodeError(
                f"need {k} distinct messages to decode, got {len(unique)}"
            )
        chosen = list(unique.values())
        if any(m.m != self.params.m or m.p != self.params.p for m in chosen):
            raise DecodeError(f"messages do not all hold m={self.params.m} symbols "
                              f"of p={self.params.p} bits")
        beta = self.coefficients.matrix(m.message_id for m in chosen)
        payloads = np.frombuffer(b"".join(m.payload_bytes() for m in chosen), dtype=np.uint8)
        payloads = payloads.reshape(k, self.params.message_bytes)
        data = _source_bytes(self.field, self.params, beta, payloads)
        if start is not None:
            _DEC_BLOCK_NS.observe(time.perf_counter_ns() - start)
        return _trim(data, self.params, length)


class ProgressiveDecoder:
    """Streaming decoder with authentication and dependence detection.

    Works in *coefficient space*.  Per accepted message it stores the
    payload record as received (``_payloads``, arrival order) and one
    ``2k``-wide row ``[e | t]`` with ``e = t @ B``, ``B`` being the
    coefficient rows of the accepted messages in the same order: the
    ``e`` parts are kept in reduced row echelon form (1 at the row's
    own pivot, 0 at every other), ``t`` records which combination of
    the raw rows gives it.  An arrival is eliminated as ``[beta | 0]``
    against those rows only — ``O(k^2)`` field operations whatever the
    message length.  At rank ``k`` every ``e`` is a unit vector, so the
    ``t`` rows are the rows of ``B^-1`` in pivot order and
    :meth:`result` is one product with the raw records, straight into
    file bytes: the block decode without its inversion.

    An arrival whose coefficient part reduces to zero has accumulated
    the ``t`` with ``beta = t @ B``, so an authentic payload equals
    ``t @ _payloads``, a one-row product compared with the record as
    received.  That residual is computed only then: the message
    is *dependent* if it vanishes and *corrupt* (it contradicts the span
    of authentic rows) otherwise — the latter can only happen when
    authentication is disabled or defeated, and is still caught and
    rejected here.

    With a ``digest_store`` (Section III-C) the digests are checked in
    batches, not per arrival.  An innovative arrival whose id the store
    holds is admitted *pending*: eliminated and kept, reported
    ``ACCEPTED``, counted in ``accepted``, ``rank`` and against
    ``needed``, its digest unchecked.  The pending rows are authenticated
    in one :meth:`DigestStore.verify_many` call on the kept records when
    an arrival would complete the rank, when an arrival is dependent
    (it joins the batch, and its residual is then computed against
    authentic rows only) and when an arrival repeats a pending row's id.
    A pending row that fails is dropped: its id becomes unseen again, it
    moves from ``accepted`` to ``rejected`` and ``revoked`` counts it,
    and the elimination is rebuilt from the kept rows' coefficients: the
    state saved when the authentic rows were last checked is restored and
    only the kept rows after them are stepped again.  An
    arrival whose own digest fails in such a batch is ``REJECTED`` on its
    own offer.  ``COMPLETE`` therefore means every row has passed its
    digest, and so does everything :meth:`result` uses; :meth:`settle`
    authenticates what is pending on demand (a download that ends short
    of rank ``k``).  An id the store does not hold is rejected on offer.
    Honest traffic sees the outcomes, counters and bytes of checking each
    message before it is offered.
    """

    def __init__(
        self,
        params: CodingParams,
        coefficients: CoefficientGenerator,
        digest_store: DigestStore | None = None,
        field: BinaryField | None = None,
    ):
        self.params = params
        self.field = field if field is not None else GF(params.p)
        self.coefficients = coefficients
        self.digest_store = digest_store
        # A batch of arrivals has its rows generated in one call up front
        # (CoefficientGenerator.warm, which leaves a lone row to row());
        # a stand-in without it is asked row by row only.
        self._warm = getattr(coefficients, "warm", None)
        self._k = params.k  # the property divides; arrivals read it often
        # The elimination itself, chosen here: compiled for a table field
        # when the library is live, numpy otherwise (repro.gf.linalg).
        # Bound to the matrices when they are allocated.
        self._bind_step = arrival_step(self.field)
        self._step = None
        # Allocated by the first row that reaches elimination (the idle
        # chunks of a streaming download hold nothing) and dropped once
        # result() has the bytes; row i of each belongs to the i-th
        # accepted message, row ``rank`` is the arrival's work row.
        self._payloads: np.ndarray | None = None  # (k, message_bytes) records
        self._reduced: np.ndarray | None = None  # (k, 2k) rows [e | t]
        self._pivots = np.empty(self._k, dtype=np.intp)  # [:rank]: pivot columns
        self._rank = 0
        # Row i's message id; rows [_verified, rank) are pending: admitted
        # but not yet checked against their digests.
        self._ids: list[int] = []
        self._verified = 0
        # The elimination of the first ``_saved`` rows, all authentic, as
        # it stood when they were checked: a revocation restores it and
        # re-steps only the kept rows after it.  Allocated by the first
        # check that leaves the rank short of k (honest traffic checks
        # once, at rank k, and never needs it).
        self._saved = 0
        self._saved_reduced: np.ndarray | None = None
        self._saved_pivots: np.ndarray | None = None
        self._seen_ids: set[int] = set()
        self._decoded: bytes | None = None
        self.accepted = 0
        self.dependent = 0
        self.rejected = 0
        #: Rejected rows that *contradicted* the span of authentic rows —
        #: pollution that digests did not catch.  Always <= ``rejected``.
        self.inconsistent = 0
        #: Rows reported ``ACCEPTED`` whose digests failed later, when the
        #: pending rows were authenticated: each has moved from
        #: ``accepted`` to ``rejected``.  Only ever grows.
        self.revoked = 0

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def needed(self) -> int:
        """How many more useful messages are required."""
        return self._k - self._rank

    @property
    def is_complete(self) -> bool:
        return self._rank >= self._k

    def offer(self, message: EncodedMessage) -> Offer:
        """Feed one received message; returns what happened to it."""
        return self._offer_one(message)

    def offer_many(self, messages) -> list[Offer]:
        """Drain a batch of arrivals.

        Consumes messages in order until the decode completes; returns
        one :class:`Offer` per *consumed* message (so the list may be
        shorter than the input, and is empty when the decoder is already
        complete).  Outcomes, counters, traces, and the decoded bytes
        are those of calling :meth:`offer` in a loop; the coefficient rows
        of the batch's own ids (this file's, not seen yet) are generated
        first, in one batch (``CoefficientGenerator.warm``).
        """
        msgs = list(messages)
        batch_span = None
        if _TRACER.enabled:
            batch_span = _spans.start_span("rlnc.offer_many", count=len(msgs))
        try:
            if self._warm is not None and len(msgs) > 1 and not self.is_complete:
                file_id, seen = self.coefficients.file_id, self._seen_ids
                self._warm([
                    msg.message_id for msg in msgs
                    if msg.file_id == file_id and msg.message_id not in seen
                ])
            outcomes: list[Offer] = []
            for msg in msgs:
                if self.is_complete:
                    break
                outcomes.append(self._offer_one(msg))
            return outcomes
        finally:
            _spans.finish_span(batch_span)

    def _offer_one(self, message: EncodedMessage) -> Offer:
        if not (_OBS.enabled or _TRACER.enabled):
            return self._offer(message)
        was_complete = self.is_complete
        outcome = self._offer(message)
        if _OBS.enabled:
            if outcome is Offer.ACCEPTED or (outcome is Offer.COMPLETE and not was_complete):
                _DEC_INNOVATIVE.inc()
            elif outcome is Offer.DEPENDENT:
                _DEC_DEPENDENT.inc()
            elif outcome is Offer.REJECTED:
                _DEC_REJECTED.inc()
        _TRACER.emit(
            RLNC_OFFER,
            file_id=int(message.file_id),
            message_id=int(message.message_id),
            outcome=outcome.value,
            rank=self.rank,
        )
        return outcome

    def _offer(self, message: EncodedMessage) -> Offer:
        k = self._k
        if self._rank >= k:
            return Offer.COMPLETE
        if message.file_id != self.coefficients.file_id:
            self.rejected += 1
            return Offer.REJECTED
        if message.m != self.params.m or message.p != self.params.p:
            self.rejected += 1
            return Offer.REJECTED
        message_id, store = message.message_id, self.digest_store
        if message_id in self._seen_ids:
            # A pending row holding this id is authenticated first, so a
            # forged row never blocks its id.
            if message_id in self._ids[self._verified :]:
                self._authenticate()
            if message_id in self._seen_ids:
                self.dependent += 1
                return Offer.DEPENDENT
        if store is not None and not store.holds(message.file_id, message_id):
            self.rejected += 1
            return Offer.REJECTED

        elim_start = time.perf_counter_ns() if _OBS.enabled else None
        try:
            try:
                coeff_row = self.coefficients.row(message_id)
            except UnknownCoefficientError:
                # Repair-range id with no registered repair record:
                # the row cannot be derived, so the message cannot
                # be used (or even checked for consistency).
                self.rejected += 1
                return Offer.REJECTED
            if self._reduced is None:
                self._payloads = np.empty((k, self.params.message_bytes), dtype=np.uint8)
                self._reduced = np.empty((k, 2 * k), dtype=self.field.dtype)
                self._step = self._bind_step(self._reduced, self._pivots)
            rank = self._rank
            pivot = self._arrive(coeff_row, message.payload_bytes())
            checked = store is None or pivot < 0 or rank + 1 == k
            if checked and store is not None:
                # A dependent arrival, or one that completes the rank, is
                # authenticated now, in one batch with the pending rows:
                # the residual below compares against authentic rows only,
                # and COMPLETE means every row has passed its digest.
                authentic = self._authenticate(message_id, stepped=pivot >= 0)
                if self._rank != rank and authentic:  # pending rows were dropped
                    pivot = self._arrive(coeff_row, self._payloads[rank])
                if not authentic:
                    self.rejected += 1
                    return Offer.REJECTED
            rank = self._rank
            if pivot < 0:
                if _OBS.enabled:
                    _DEC_RESIDUAL_CHECKS.inc()
                row = self._reduced[rank]
                expected = record_matmul(
                    self.field, row[None, k : k + rank], self._payloads[:rank]
                )
                if not np.array_equal(expected[0], self._payloads[rank]):
                    # Authentic rows can never contradict the span; this
                    # message was forged in a way the digests did not catch.
                    # The decoder survives: the row is dropped, state is
                    # untouched (the id stays unseen so the authentic
                    # message with the same id can still be accepted), and
                    # the inconsistency is counted.
                    self.rejected += 1
                    self.inconsistent += 1
                    if _OBS.enabled:
                        _DEC_INCONSISTENT.inc()
                    return Offer.REJECTED
                self._seen_ids.add(message_id)
                self.dependent += 1
                return Offer.DEPENDENT
            self._pivots[rank] = pivot
            self._rank = rank + 1
            self._ids.append(message_id)
            self._seen_ids.add(message_id)
            self.accepted += 1
            if checked:
                self._verified = rank + 1
            return Offer.COMPLETE if rank + 1 == k else Offer.ACCEPTED
        finally:
            if elim_start is not None:
                _DEC_ELIM_NS.observe(time.perf_counter_ns() - elim_start)

    def _arrive(self, coeff_row: np.ndarray, payload) -> int:
        """Write an arrival into the work row ``rank`` of both matrices and
        eliminate it; returns the step's pivot (``-1``: dependent).

        Nothing reads a row at or past ``rank``, so an arrival that is
        not kept is simply left there for the next one to overwrite.
        """
        k, rank = self._k, self._rank
        row = self._reduced[rank]
        row[:k] = coeff_row
        row[k:] = 0
        self._payloads[rank] = np.frombuffer(payload, dtype=np.uint8)
        return self._step(rank)

    def _authenticate(self, work_id: int | None = None, stepped: bool = False) -> bool:
        """Check the pending rows ``[_verified, rank)`` against their
        digests, with the arrival ``work_id`` in the work row after them
        when one is given (``stepped``: its step found a pivot), and drop
        the pending rows that fail.

        The batch is one :meth:`DigestStore.verify_many` call on the rows
        in place.  Returns the arrival's verdict; the caller rejects a
        forged arrival on its own offer, and re-steps an authentic one
        when rows were dropped (the rebuild undid its step).
        """
        lo, rank = self._verified, self._rank
        ids = self._ids[lo:rank]
        if work_id is not None:
            ids.append(work_id)
        if not ids:
            return True
        file_id, rows = self.coefficients.file_id, self._payloads[lo : lo + len(ids)]
        verdicts = self.digest_store.verify_many(file_id, ids, rows)
        self._verified = rank
        authentic = work_id is None or verdicts[-1]
        forged = [lo + i for i, ok in enumerate(verdicts[: rank - lo]) if not ok]
        if forged:
            self._revoke(forged)
        elif stepped and authentic:
            return True  # it completes the rank: no later check restores
        elif stepped:
            # Its step already cleared its pivot from the kept rows.
            self._rebuild()
        if self._rank < self._k:
            self._checkpoint()
        return authentic

    def _revoke(self, forged: list[int]) -> None:
        """Take the ``forged`` rows out.  Each moves from accepted to
        rejected and its id becomes unseen again; the kept payloads after
        the first of them move down over the gaps and the elimination is
        rebuilt from the kept rows."""
        first, gone = forged[0], set(forged)
        moved = [i for i in range(first, self._rank) if i not in gone]
        rank = first + len(moved)
        for i in forged:
            message_id = self._ids[i]
            self._seen_ids.discard(message_id)
            self.accepted -= 1
            self.rejected += 1
            self.revoked += 1
            if _OBS.enabled:
                _DEC_REJECTED.inc()
                _DEC_REVOKED.inc()
            _TRACER.emit(
                RLNC_REVOKE,
                file_id=int(self.coefficients.file_id),
                message_id=int(message_id),
                rank=rank,
            )
        self._payloads[first:rank] = self._payloads[moved]
        self._ids[first:] = [self._ids[i] for i in moved]
        self._rank = self._verified = rank
        self._rebuild()

    def _checkpoint(self) -> None:
        """Save the elimination of the rows ``[0, rank)``, all authentic."""
        rank = self._rank
        if self._saved_reduced is None:
            self._saved_reduced = np.empty_like(self._reduced)
            self._saved_pivots = np.empty_like(self._pivots)
        self._saved_reduced[:rank] = self._reduced[:rank]
        self._saved_pivots[:rank] = self._pivots[:rank]
        self._saved = rank

    def _rebuild(self) -> None:
        """Restore the saved elimination of the first ``_saved`` rows and
        re-step the kept rows after them from their coefficients with the
        arrival step: the same state as eliminating every kept row afresh,
        no payload touched.  Rows only move at or past ``_verified``, and
        ``_saved`` never exceeds it, so the saved rows are still rows
        ``[0, _saved)``."""
        k, saved = self._k, self._saved
        if saved:
            self._reduced[:saved] = self._saved_reduced[:saved]
            self._pivots[:saved] = self._saved_pivots[:saved]
        for i in range(saved, self._rank):
            row = self._reduced[i]
            row[:k] = self.coefficients.row(self._ids[i])
            row[k:] = 0
            self._pivots[i] = self._step(i)

    def settle(self) -> int:
        """Authenticate the pending rows now (a download that ends short of
        rank ``k`` leaves some); returns how many were revoked."""
        before = self.revoked
        if self.digest_store is not None and self._verified < self._rank:
            self._authenticate()
        return self.revoked - before

    def result(self, length: int | None = None) -> bytes:
        """The decoded file bytes; valid once :attr:`is_complete`."""
        if not self.is_complete:
            raise DecodeError(f"decode incomplete: rank {self._rank} of {self._k}")
        if self._decoded is None:
            k = self._k
            # ``t @ B`` has the unit vector at ``_pivots[i]`` in row i.
            inverse = np.empty((k, k), dtype=self.field.dtype)
            inverse[self._pivots] = self._reduced[:, k:]
            source = record_matmul(self.field, inverse, self._payloads)
            self._decoded = records_to_bytes(source, self.params.p, self.params.m)
            # The bytes are the result; the records (the chunk's size)
            # would otherwise live as long as the decoder does.
            self._payloads = self._reduced = self._step = self._ids = None
            self._saved_reduced = self._saved_pivots = None
        return _trim(self._decoded, self.params, length)
