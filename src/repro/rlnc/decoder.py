"""Decoding coded messages back into file bytes (Section III-B).

Two decoders are provided:

* :class:`BlockDecoder` — the paper's description taken literally:
  collect ``k`` messages, regenerate the coefficient sub-matrix from the
  plaintext message-ids, invert, multiply.
* :class:`ProgressiveDecoder` — the same decode fed one message at a
  time as they arrive from multiple peers in parallel: an online
  elimination on the ``k``-wide coefficient rows detects useless
  (linearly dependent) messages immediately, messages failing digest
  authentication are rejected, and the instant the file is decodable is
  reported — which is when the user sends the stop-transmission of
  Fig. 4(b).  The payloads are multiplied once, at the end, by the
  inverse the elimination has already produced.
"""

from __future__ import annotations

import time
from enum import Enum

import numpy as np

from ..gf import GF, BinaryField, SingularMatrixError, solve
from ..obs import REGISTRY as _OBS
from ..obs import TRACER as _TRACER
from ..obs import spans as _spans
from ..obs.events import RLNC_OFFER
from ..security.integrity import DigestStore
from .coefficients import CoefficientGenerator, UnknownCoefficientError
from .message import EncodedMessage
from .params import CodingParams
from .symbols import symbols_to_bytes

__all__ = ["BlockDecoder", "ProgressiveDecoder", "Offer", "DecodeError"]

_DEC_INNOVATIVE = _OBS.counter(
    "repro.rlnc.decode.innovative", "offered messages that increased rank"
)
_DEC_DEPENDENT = _OBS.counter(
    "repro.rlnc.decode.dependent", "offered messages that were linearly dependent"
)
_DEC_REJECTED = _OBS.counter(
    "repro.rlnc.decode.rejected", "offered messages rejected (auth/shape/forgery)"
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
    received and ``payloads`` their payloads, row for row.  The bytes
    cover the whole padded symbol grid; :func:`_trim` cuts them.
    """
    try:
        source = solve(field, beta, payloads)
    except SingularMatrixError as exc:
        raise DecodeError(
            "coefficient sub-matrix is singular; supply a different message"
        ) from exc
    return symbols_to_bytes(source.reshape(-1), params.p)


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
        beta = self.coefficients.matrix(m.message_id for m in chosen)
        payloads = np.stack([m.payload for m in chosen])
        data = _source_bytes(self.field, self.params, beta, payloads)
        if start is not None:
            _DEC_BLOCK_NS.observe(time.perf_counter_ns() - start)
        return _trim(data, self.params, length)


class ProgressiveDecoder:
    """Streaming decoder with authentication and dependence detection.

    Works in *coefficient space*.  Per accepted message it stores the
    payload exactly as received (``_payloads``, arrival order) and one
    ``2k``-wide row ``[e | t]`` with ``e = t @ B``, ``B`` being the
    coefficient rows of the accepted messages in the same order: the
    ``e`` parts are kept in reduced row echelon form (1 at the row's
    own pivot, 0 at every other), ``t`` records which combination of
    the raw rows gives it.  An arrival is eliminated as ``[beta | 0]``
    against those rows only — ``O(k^2)`` field operations whatever the
    message length.  At rank ``k`` every ``e`` is a unit vector, so the
    ``t`` rows are the rows of ``B^-1`` in pivot order and
    :meth:`result` is one product with the raw payloads: the block
    decode without its inversion.

    An arrival whose coefficient part reduces to zero has accumulated
    the ``t`` with ``beta = t @ B``, so an authentic payload equals
    ``t @ _payloads``.  That residual is computed only then: the message
    is *dependent* if it vanishes and *corrupt* (it contradicts the span
    of authentic rows) otherwise — the latter can only happen when
    authentication is disabled or defeated, and is still caught and
    rejected here.
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
        self._k = params.k  # the property divides; arrivals read it often
        # Allocated by the first row that reaches elimination (the idle
        # chunks of a streaming download hold nothing) and dropped once
        # result() has the bytes; row i of each belongs to the i-th
        # accepted message, row ``rank`` is the arrival's work row.
        self._payloads: np.ndarray | None = None  # (k, m) raw payloads
        self._reduced: np.ndarray | None = None  # (k, 2k) rows [e | t]
        self._pivots = np.empty(self._k, dtype=np.intp)  # [:rank]: pivot columns
        self._rank = 0
        self._seen_ids: set[int] = set()
        self._decoded: bytes | None = None
        self.accepted = 0
        self.dependent = 0
        self.rejected = 0
        #: Rejected rows that *contradicted* the span of authentic rows —
        #: pollution that digests did not catch.  Always <= ``rejected``.
        self.inconsistent = 0

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
        are those of calling :meth:`offer` in a loop.
        """
        msgs = list(messages)
        batch_span = None
        if _TRACER.enabled:
            batch_span = _spans.start_span("rlnc.offer_many", count=len(msgs))
        try:
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
        rank_before = self.rank
        outcome = self._offer(message)
        if _OBS.enabled:
            if self.rank > rank_before:
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
        k, rank = self._k, self._rank
        if rank >= k:
            return Offer.COMPLETE
        if message.file_id != self.coefficients.file_id:
            self.rejected += 1
            return Offer.REJECTED
        if message.m != self.params.m or message.p != self.params.p:
            self.rejected += 1
            return Offer.REJECTED
        if message.message_id in self._seen_ids:
            self.dependent += 1
            return Offer.DEPENDENT
        if self.digest_store is not None and not self.digest_store.verify(
            message.file_id, message.message_id, message.payload_bytes()
        ):
            self.rejected += 1
            return Offer.REJECTED

        field = self.field
        elim_start = time.perf_counter_ns() if _OBS.enabled else None
        try:
            try:
                coeff_row = self.coefficients.row(message.message_id)
            except UnknownCoefficientError:
                # Repair-range id with no registered repair record:
                # the row cannot be derived, so the message cannot
                # be used (or even checked for consistency).
                self.rejected += 1
                return Offer.REJECTED
            if self._reduced is None:
                self._payloads = np.empty((k, self.params.m), dtype=field.dtype)
                self._reduced = np.empty((k, 2 * k), dtype=field.dtype)
            # The arrival is reduced where it will be kept: the next free
            # row of each matrix.  Nothing reads a row at or past ``rank``,
            # so one that turns out dependent or forged is simply left
            # there for the next arrival to overwrite.
            row, payload = self._reduced[rank], self._payloads[rank]
            row[:k] = coeff_row
            row[k:] = 0
            message.payload_into(payload)
            kept = self._reduced[:rank]
            # Kept rows are fully reduced — 1 at their own pivot, 0 at
            # every other kept pivot — so all factors can be read off
            # the arrival at once and one product clears them.
            factors = row.take(self._pivots[:rank])
            if factors.any():
                row ^= field.combine(factors, kept)
            nonzero = row[:k].nonzero()[0]
            if nonzero.size == 0:
                if _OBS.enabled:
                    _DEC_RESIDUAL_CHECKS.inc()
                expected = field.combine(row[k : k + rank], self._payloads[:rank])
                if not np.array_equal(expected, payload):
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
                self._seen_ids.add(message.message_id)
                self.dependent += 1
                return Offer.DEPENDENT
            pivot = int(nonzero[0])
            row[k + rank] = 1  # the new raw row enters its own combination
            v = int(row[pivot])
            if v != 1:
                field.scale_rows(row[pivot:], field.inv_scalar(v))
            # Keep the kept rows reduced: clear the new pivot from them.
            factors = kept[:, pivot].copy()
            if factors.any():
                field.addmul(kept, factors[:, None], row)
            self._pivots[rank] = pivot
            self._rank = rank + 1
            self._seen_ids.add(message.message_id)
            self.accepted += 1
            return Offer.COMPLETE if rank + 1 == k else Offer.ACCEPTED
        finally:
            if elim_start is not None:
                _DEC_ELIM_NS.observe(time.perf_counter_ns() - elim_start)

    def result(self, length: int | None = None) -> bytes:
        """The decoded file bytes; valid once :attr:`is_complete`."""
        if not self.is_complete:
            raise DecodeError(f"decode incomplete: rank {self._rank} of {self._k}")
        if self._decoded is None:
            k = self._k
            # ``t @ B`` has the unit vector at ``_pivots[i]`` in row i.
            inverse = np.empty((k, k), dtype=self.field.dtype)
            inverse[self._pivots] = self._reduced[:, k:]
            source = self.field.matmul(inverse, self._payloads)
            self._decoded = symbols_to_bytes(source.reshape(-1), self.params.p)
            # The bytes are the result; the matrices (4x the chunk at
            # p = 8) would otherwise live as long as the decoder does.
            self._payloads = self._reduced = None
        return _trim(self._decoded, self.params, length)
