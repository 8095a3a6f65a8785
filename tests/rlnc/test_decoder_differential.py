"""Differential test: the coefficient-space decoder against a dense oracle.

``ProgressiveDecoder`` eliminates ``2k``-wide rows and only looks at a
payload when a coefficient row cancels.  The oracle here does it the
expensive, obvious way — ``row_reduce`` on the full ``[beta | payload]``
matrix of everything kept plus the arrival — and applies the same check
order.  Both see random interleavings of every message class the
decoder distinguishes; outcome sequence, the four counters, the seen-id
set after every step and the decoded bytes must agree, whether the
stream goes through ``offer``, ``offer_many`` or a
``StreamingDecoder`` chunk.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import row_reduce
from repro.repair.recombine import RepairableCoefficients, RepairRecord, recombine
from repro.rlnc import (
    CodingParams,
    EncodedMessage,
    FileEncoder,
    FileManifest,
    Offer,
    ProgressiveDecoder,
    StreamingDecoder,
    symbols_to_bytes,
)
from repro.rlnc.coefficients import UnknownCoefficientError
from repro.security import DigestStore

M = 8
FILE_ID = 0xD1FF
KINDS = (
    "fresh",
    "duplicate",
    "dependent",
    "forged_dependent",
    "wrong_file",
    "wrong_shape",
    "unregistered_repair",
    "digest_failing",
)


class DenseOracle:
    """``ProgressiveDecoder``'s contract, decided on full-width rows."""

    def __init__(self, params, coefficients, store):
        self.params, self.coefficients, self.store = params, coefficients, store
        self.field = coefficients.field
        self.kept = np.empty((0, params.k + params.m), dtype=self.field.dtype)
        self.seen: set[int] = set()
        self.accepted = self.dependent = self.rejected = self.inconsistent = 0
        self.wrong_file = 0

    @property
    def is_complete(self):
        return len(self.kept) == self.params.k

    def offer(self, msg):
        k = self.params.k
        if self.is_complete:
            return Offer.COMPLETE
        if msg.file_id != self.coefficients.file_id:
            self.rejected += 1
            self.wrong_file += 1
            return Offer.REJECTED
        if msg.m != self.params.m or msg.p != self.params.p:
            self.rejected += 1
            return Offer.REJECTED
        if msg.message_id in self.seen:
            self.dependent += 1
            return Offer.DEPENDENT
        if self.store is not None and not self.store.verify(
            msg.file_id, msg.message_id, msg.payload_bytes()
        ):
            self.rejected += 1
            return Offer.REJECTED
        try:
            beta = self.coefficients.row(msg.message_id)
        except UnknownCoefficientError:
            self.rejected += 1
            return Offer.REJECTED
        stacked = np.vstack([self.kept, np.concatenate([beta, msg.payload])])
        reduced, full_rank = row_reduce(self.field, stacked)
        # Columns are swept left to right, so the pivots that land in
        # the first k columns number the rank of the coefficient part.
        coeff_rank = int(np.count_nonzero(reduced[:, :k].any(axis=1)))
        if coeff_rank == len(stacked):
            self.kept = stacked
            self.seen.add(msg.message_id)
            self.accepted += 1
            return Offer.COMPLETE if self.is_complete else Offer.ACCEPTED
        if full_rank == len(self.kept):
            self.seen.add(msg.message_id)
            self.dependent += 1
            return Offer.DEPENDENT
        self.rejected += 1
        self.inconsistent += 1
        return Offer.REJECTED

    def result(self):
        k = self.params.k
        reduced, _ = row_reduce(self.field, self.kept)
        data = symbols_to_bytes(reduced[:, k:].reshape(-1), self.params.p)
        return data[: self.params.file_bytes]


def _flip(msg):
    payload = np.array(msg.payload)
    payload[len(payload) // 2] ^= 1
    return msg.with_payload(payload)


@lru_cache(maxsize=None)
def _world(p, k):
    """Everything one (p, k) cell needs; built once, never mutated."""
    params = CodingParams(p=p, m=M, file_bytes=k * M * p // 8)
    assert params.k == k
    rng = np.random.default_rng(1000 * p + k)
    data = rng.bytes(params.file_bytes)
    encoder = FileEncoder(params, secret=b"owner", file_id=FILE_ID)
    source = encoder.source_matrix(data)
    # Sequential ids, unscreened: at p = 4 some are dependent by chance.
    fresh = encoder.encode_ids(source, range(2 * k + 4))
    # Fewer helpers than k, so their span is reached before the decode
    # completes and the repaired messages can arrive dependent.
    helpers = fresh[: min(max(k - 1, 1), 4)]
    helper_ids = tuple(m.message_id for m in helpers)
    count = min(len(helpers), 2)
    registered = RepairRecord(FILE_ID, 0, helper_ids, count)
    unregistered = RepairRecord(FILE_ID, 1, helper_ids, count)
    dependent = recombine(registered, helpers, encoder.field)
    stray = recombine(unregistered, helpers, encoder.field)
    other = FileEncoder(params, secret=b"owner", file_id=FILE_ID + 1)
    other_p = 8 if p != 8 else 16
    pools = {
        "helpers": helpers,
        "fresh": fresh,
        "duplicate": fresh,
        "dependent": dependent,
        "forged_dependent": [_flip(m) for m in dependent],
        "wrong_file": other.encode_ids(other.source_matrix(data), range(2)),
        "wrong_shape": [
            EncodedMessage(FILE_ID, 900, np.zeros(M + 1, dtype=np.uint32), p),
            EncodedMessage(FILE_ID, 901, np.zeros(M, dtype=np.uint32), other_p),
        ],
        "unregistered_repair": stray,
        "digest_failing": [_flip(m) for m in fresh],
    }
    store = DigestStore()
    for msg in fresh + dependent + stray:
        store.record(msg.file_id, msg.message_id, msg.payload_bytes())
    return params, encoder, registered, pools, store


def _stream(pools, picks, seed, helpers_first):
    """All fresh messages plus the drawn noise, randomly interleaved.

    With ``helpers_first`` the repair record's helpers lead, so every
    repaired message after them — authentic or forged — has coefficients
    that cancel and is decided by its payload residual.
    """
    msgs = list(pools["fresh"])
    msgs += [pools[kind][index % len(pools[kind])] for kind, index in picks]
    np.random.default_rng(seed).shuffle(msgs)
    if helpers_first:
        helper_ids = {m.message_id for m in pools["helpers"]}
        msgs.sort(key=lambda m: m.message_id not in helper_ids)
    return msgs


def _cell(p, k, with_store):
    """Fresh coefficients and oracle for one example of the (p, k) cell."""
    params, encoder, record, pools, store = _world(p, k)
    store = store if with_store else None
    coefficients = RepairableCoefficients(encoder.coefficients, [record])
    return params, pools, store, coefficients, DenseOracle(params, coefficients, store)


def _assert_same_state(decoder, oracle, rejected_elsewhere=0):
    assert decoder._seen_ids == oracle.seen
    assert decoder.accepted == oracle.accepted
    assert decoder.dependent == oracle.dependent
    assert decoder.inconsistent == oracle.inconsistent
    assert decoder.rejected == oracle.rejected - rejected_elsewhere
    assert decoder.rank == len(oracle.kept)


def _kept_rows(decoder):
    """The rows the decoder has kept, as bytes: an arrival it does not
    keep is reduced in the next free row and must leave these alone."""
    if decoder._reduced is None:
        return b"", b""
    rank = decoder.rank
    return decoder._reduced[:rank].tobytes(), decoder._payloads[:rank].tobytes()


def _feed_batches(target, oracle, queue, batches, check):
    """Cut ``queue`` into the drawn batch sizes; ``check`` after each."""
    while queue:
        size = batches.pop() if batches else len(queue)
        batch, queue = queue[:size], queue[size:]
        expected = [oracle.offer(m) for m in batch if not oracle.is_complete]
        assert target.offer_many(batch) == expected
        check()


cells = pytest.mark.parametrize("p", [4, 8, 16, 32])
noise = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 255)), max_size=24)
order = {"seed": st.integers(0, 2**32 - 1), "helpers_first": st.booleans()}
# k = 33 costs ~10x a k = 8 example (the oracle reduces a 33 x 41 matrix
# per arrival), so it gets the same coverage of kinds in fewer examples.
sizes = st.sampled_from([1, 2, 2, 8, 8, 8, 33])
common = settings(max_examples=50, deadline=None)


@cells
@given(k=sizes, picks=noise, with_store=st.booleans(), **order)
@common
def test_offer_matches_dense_oracle(p, k, picks, with_store, seed, helpers_first):
    params, pools, store, coefficients, oracle = _cell(p, k, with_store)
    decoder = ProgressiveDecoder(params, coefficients, store)
    for msg in _stream(pools, picks, seed, helpers_first):
        kept = _kept_rows(decoder)
        outcome = decoder.offer(msg)
        assert outcome == oracle.offer(msg)
        _assert_same_state(decoder, oracle)
        if outcome in (Offer.DEPENDENT, Offer.REJECTED):
            assert _kept_rows(decoder) == kept
    assert decoder.is_complete == oracle.is_complete
    if oracle.is_complete:
        assert decoder.result() == oracle.result()


@cells
@given(
    k=sizes,
    picks=noise,
    with_store=st.booleans(),
    batches=st.lists(st.integers(0, 9), max_size=12),
    **order,
)
@common
def test_offer_many_matches_dense_oracle(p, k, picks, with_store, batches, seed, helpers_first):
    params, pools, store, coefficients, oracle = _cell(p, k, with_store)
    decoder = ProgressiveDecoder(params, coefficients, store)
    queue = _stream(pools, picks, seed, helpers_first)
    _feed_batches(decoder, oracle, queue, batches, lambda: _assert_same_state(decoder, oracle))
    if oracle.is_complete:
        assert decoder.result() == oracle.result()


class _OneChunk:
    """What ``StreamingDecoder`` asks of a ``ChunkedEncoder``."""

    def __init__(self, coefficients):
        self._coefficients = coefficients

    def coefficient_generator(self, index, version):
        return self._coefficients


@cells
@given(
    k=sizes,
    picks=noise,
    with_store=st.booleans(),
    batches=st.lists(st.integers(0, 9), max_size=12),
    **order,
)
@common
def test_streaming_chunk_matches_dense_oracle(
    p, k, picks, with_store, batches, seed, helpers_first
):
    params, pools, store, coefficients, oracle = _cell(p, k, with_store)
    length = params.file_bytes - 1
    manifest = FileManifest(FILE_ID, length, params.file_bytes, p, M, (FILE_ID,), (length,))
    streaming = StreamingDecoder(manifest, _OneChunk(coefficients), store)
    target = streaming.chunk(0)
    queue = _stream(pools, picks, seed, helpers_first)
    # The streaming router turns away other files' messages itself,
    # before any chunk decoder counts them.
    _feed_batches(
        target, oracle, queue, batches,
        lambda: _assert_same_state(target._decoder, oracle, oracle.wrong_file),
    )
    assert target.is_complete == oracle.is_complete
    if oracle.is_complete:
        assert streaming.pop_ready() == [oracle.result()[:length]]
