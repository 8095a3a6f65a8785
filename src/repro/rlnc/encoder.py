"""Random-linear encoding of files into messages (Equation (1), Fig. 2).

The owner splits a file into the ``k x m`` source matrix ``X`` and
produces coded messages ``Y_i = sum_j beta_ij X_j`` with secret keyed
coefficients.  Two guarantees from Section III-A are implemented:

* **per-bundle decodability** — "the encoding peer can guarantee that
  exactly k messages will suffice to decode a file by simply testing
  generated rows for linear independence before encoding":
  :meth:`FileEncoder.encode_bundles` screens candidate message ids so
  that every bundle of ``k`` messages destined for one peer has an
  invertible coefficient matrix (a user downloading a whole bundle from
  a single peer always decodes with exactly ``k`` messages);
* **digest recording** — each produced message's MD5 is recorded in the
  owner's :class:`~repro.security.integrity.DigestStore` for download
  time authentication (Section III-C).

Across *mixed* bundles from several peers an arbitrary ``k``-subset is
invertible with probability at least ``1 - k/q`` (union bound over the
Schwartz-Zippel events); the progressive decoder simply requests an
extra message in the rare dependent case and the benchmark suite
measures that overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gf import GF, BinaryField, IncrementalRank, is_invertible
from ..gf.bitmatmul import _TABLE_BYTES
from ..obs import REGISTRY as _OBS
from ..obs import TRACER as _TRACER
from ..obs import span as _span
from ..obs import spans as _spans
from ..security.integrity import DigestStore
from .coefficients import CoefficientGenerator
from .message import EncodedMessage
from .params import CodingParams
from .symbols import reshape_file_matrix

__all__ = ["FileEncoder", "EncodedFile"]

_ENC_MESSAGES = _OBS.counter("repro.rlnc.encode.messages", "coded messages produced")
_ENC_NS = _span("repro.rlnc.encode.ns", description="nanoseconds per encoded message")


@dataclass(frozen=True)
class EncodedFile:
    """The owner-side result of encoding one (sub-)file.

    ``bundles[p]`` is the list of messages uploaded to peer ``p``; the
    flat view :meth:`all_messages` is convenient for tests.
    """

    file_id: int
    params: CodingParams
    length: int
    bundles: tuple[tuple[EncodedMessage, ...], ...]

    def all_messages(self) -> list[EncodedMessage]:
        return [msg for bundle in self.bundles for msg in bundle]

    @property
    def messages_per_bundle(self) -> int:
        return len(self.bundles[0]) if self.bundles else 0


class FileEncoder:
    """Encoder bound to one owner secret and one file id."""

    def __init__(
        self,
        params: CodingParams,
        secret: bytes,
        file_id: int,
        field: BinaryField | None = None,
    ):
        self.params = params
        self.field = field if field is not None else GF(params.p)
        if self.field.p != params.p:
            raise ValueError(
                f"field GF(2^{self.field.p}) does not match params p={params.p}"
            )
        self.file_id = file_id
        self.coefficients = CoefficientGenerator(
            self.field, params.k, secret, file_id
        )

    def source_matrix(self, data: bytes) -> np.ndarray:
        """The ``k x m`` matrix ``X`` for ``data`` (zero-padded)."""
        if len(data) > self.params.file_bytes:
            raise ValueError(
                f"data of {len(data)} bytes exceeds configured file size "
                f"{self.params.file_bytes}"
            )
        return reshape_file_matrix(data, self.params.p, self.params.k, self.params.m)

    def encode_message(self, source: np.ndarray, message_id: int) -> EncodedMessage:
        """Produce ``Y_i`` for one message id from the source matrix."""
        enc_span = None
        if _TRACER.enabled:
            enc_span = _spans.start_span("rlnc.encode", messages=1)
        with _ENC_NS:
            beta = self.coefficients.row(message_id)
            payload = self.field.dot(beta, source)
        if _OBS.enabled:
            _ENC_MESSAGES.inc()
        _spans.finish_span(enc_span)
        return EncodedMessage(
            file_id=self.file_id,
            message_id=message_id,
            payload=payload,
            p=self.params.p,
        )

    def encode_ids(self, source: np.ndarray, message_ids) -> list[EncodedMessage]:
        """Encode a batch of ids with one ``matmul`` over the whole batch.

        ``beta_rows @ X`` produces every payload of the batch — a batch
        of one included — in a single kernel call; each payload row is
        bit-identical to the per-message :meth:`encode_message` result
        (``dot`` computes the same sum of scaled source rows).  The
        product is packed once, as a whole, and each message is a slice
        of that one buffer (:meth:`EncodedMessage.from_rows`): nothing
        downstream of the owner — digest, ``.dat``, DATA frame — packs
        or copies a row again.
        """
        ids = list(message_ids)
        enc_span = None
        if _TRACER.enabled:
            enc_span = _spans.start_span("rlnc.encode", messages=len(ids))
        with _ENC_NS:
            beta = self.coefficients.matrix(ids)
            messages = EncodedMessage.from_rows(
                self.file_id, ids, self.field.matmul(beta, source), self.params.p
            )
        if _OBS.enabled:
            _ENC_MESSAGES.inc(len(ids))
        _spans.finish_span(enc_span)
        return messages

    def independent_ids(self, count: int, start_id: int = 0) -> list[list[int]]:
        """Screen sequential ids into ``count`` bundles of ``k`` independent rows.

        Candidate ids are consumed in order and each is offered to exactly
        one bundle: an id whose coefficient row is linearly dependent on
        the rows already in the current bundle is skipped for good (the
        next bundle starts after the last id this one consumed).

        Screening is speculative: the candidates of all the bundles still
        to fill are generated as if none of them skipped an id and tested
        as one ``(bundles, k, k)`` stack by
        :func:`~repro.gf.is_invertible`.  The leading full-rank blocks are
        accepted whole, which is exactly when the row-by-row walk would
        have accepted every one of their ids; the first deficient block
        takes that walk, and speculation resumes after the ids it
        consumed (the blocks behind it were cut at the wrong ids, so they
        are screened again).  Looking ahead is therefore bounded twice:
        by ``q`` blocks — a random block is deficient with probability
        about ``1/q`` — and by a sixteenth of ``_TABLE_BYTES`` of
        candidates, ``2^16`` symbols, beyond which a larger stack is no
        cheaper per block (16 blocks at ``k = 64``, one at ``k = 256``;
        measured in EXPERIMENTS.md, "Screening is one elimination").
        """
        k = self.params.k
        ahead = min(self.field.q, max(1, _TABLE_BYTES // (64 * k * k)))
        bundles: list[list[int]] = []
        next_id = start_id
        while len(bundles) < count:
            blocks = min(count - len(bundles), ahead)
            candidates = self.coefficients.matrix(range(next_id, next_id + blocks * k))
            verdicts = is_invertible(self.field, candidates.reshape(blocks, k, k))
            accepted = blocks if verdicts.all() else int(verdicts.argmin())
            for _ in range(accepted):
                bundles.append(list(range(next_id, next_id + k)))
                next_id += k
            if accepted < blocks:
                tracker = IncrementalRank(self.field, k)
                ids = []
                while len(ids) < k:
                    if tracker.offer(self.coefficients.row(next_id)):
                        ids.append(next_id)
                    next_id += 1
                bundles.append(ids)
        return bundles

    def encode_bundles(
        self,
        data: bytes,
        n_peers: int,
        digest_store: DigestStore | None = None,
        start_id: int = 0,
    ) -> EncodedFile:
        """Encode ``data`` into ``n_peers`` decodable bundles of ``k`` messages.

        This is the full initialization-phase pipeline of Section III-A:
        source split, ``n*k`` coded messages (``k`` per peer, each bundle
        independently decodable) from one product of all screened
        coefficient rows with the source, and digest recording when a
        store is supplied.
        """
        if n_peers < 1:
            raise ValueError(f"need at least one peer, got {n_peers}")
        k = self.params.k
        source = self.source_matrix(data)
        plan = self.independent_ids(n_peers, start_id=start_id)
        ids = [mid for bundle in plan for mid in bundle]
        messages = self.encode_ids(source, ids)
        if digest_store is not None:
            digest_store.record_many(
                self.file_id, ids, [msg.payload_bytes() for msg in messages]
            )
        return EncodedFile(
            file_id=self.file_id,
            params=self.params,
            length=len(data),
            bundles=tuple(
                tuple(messages[i : i + k]) for i in range(0, n_peers * k, k)
            ),
        )
