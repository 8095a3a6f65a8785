"""``encode_bundles`` in one kernel pass equals the per-bundle reference.

The reference is what the encoder did before bundles were stacked: ids
screened row by row with :class:`IncrementalRank` only, and one
``field.dot`` per id over the file's symbols (``reshape_file_matrix``).
"""

import numpy as np
import pytest

from repro.gf import IncrementalRank
from repro.obs import REGISTRY, TRACER, observability
from repro.rlnc import (
    BlockDecoder,
    CodingParams,
    EncodedMessage,
    FileEncoder,
    ProgressiveDecoder,
    reshape_file_matrix,
)
from repro.rlnc.message import pack_rows
from repro.security import DigestStore

K = 8
M = 520  # not a multiple of 64; 8 stacked bundles reach the bit-packed engine


def reference_ids(encoder, count, start_id=0):
    """The row-by-row walk, with no whole-block shortcut."""
    k = encoder.params.k
    bundles, next_id = [], start_id
    for _ in range(count):
        tracker, ids = IncrementalRank(encoder.field, k), []
        while len(ids) < k:
            if tracker.offer(encoder.coefficients.row(next_id)):
                ids.append(next_id)
            next_id += 1
        bundles.append(ids)
    return bundles


def make_encoder(p, file_id=0x5EED):
    params = CodingParams(p=p, m=M, file_bytes=K * M * p // 8)
    return FileEncoder(params, b"owner", file_id)


def reference_message(encoder, data, mid):
    """``Y_i = beta_i @ X`` by ``field.dot`` over the file's symbols."""
    params = encoder.params
    X = reshape_file_matrix(data, params.p, params.k, params.m)
    payload = encoder.field.dot(encoder.coefficients.row(mid), X)
    return EncodedMessage(encoder.file_id, mid, payload, params.p)


@pytest.mark.parametrize("n_peers", [1, 3, 8])
@pytest.mark.parametrize("p", [4, 8, 16, 32])
def test_stacked_equals_per_bundle_reference(p, n_peers, rng):
    encoder = make_encoder(p)
    reference = make_encoder(p)  # own coefficient cache
    data = rng.bytes(encoder.params.file_bytes - 3)
    digests, ref_digests = DigestStore(), DigestStore()

    encoded = encoder.encode_bundles(data, n_peers, digests, start_id=5)

    ref_plan = reference_ids(reference, n_peers, start_id=5)
    assert [[m.message_id for m in b] for b in encoded.bundles] == ref_plan
    for bundle, ids in zip(encoded.bundles, ref_plan):
        for msg, mid in zip(bundle, ids):
            ref = reference_message(reference, data, mid)
            assert np.array_equal(msg.payload, ref.payload)
            assert msg.payload.dtype == ref.payload.dtype
            assert not msg.payload.flags.writeable
            ref_digests.record(ref.file_id, mid, ref.payload_bytes())
    file_id = encoder.file_id
    assert digests.slice_for_file(file_id) == ref_digests.slice_for_file(file_id)
    assert len(digests) == n_peers * K


class _RepeatingRows:
    """Coefficient generator whose candidate rows repeat: id ``i`` gets
    the real row of ``i // 2``, so every block of ``k`` consecutive ids
    is rank-deficient and the planner must fall back to the walk."""

    def __init__(self, inner):
        self._inner = inner

    def row(self, message_id):
        return self._inner.row(message_id // 2)

    def matrix(self, message_ids):
        return self._inner.matrix([mid // 2 for mid in message_ids])


@pytest.mark.parametrize("p", [4, 8, 16, 32])
def test_rank_deficient_block_falls_back_to_the_walk(p):
    encoder, reference = make_encoder(p), make_encoder(p)
    encoder.coefficients = _RepeatingRows(encoder.coefficients)
    reference.coefficients = _RepeatingRows(reference.coefficients)
    plan = encoder.independent_ids(4, start_id=2)
    assert plan == reference_ids(reference, 4, start_id=2)
    # every bundle had to skip the repeated rows
    assert all(ids[-1] - ids[0] >= 2 * (K - 1) - 1 for ids in plan)


def test_fallback_mid_plan_keeps_later_bundles_aligned():
    """GF(2^4), k = 8: some blocks are deficient and some are not, so the
    plan switches between the block test and the walk (file id 22 skips
    ids 7, 8, 17, 18 — the set ``test_screening_verdicts_pinned`` pins)."""
    encoder, reference = make_encoder(4, file_id=22), make_encoder(4, file_id=22)
    plan = encoder.independent_ids(8)
    assert plan == reference_ids(reference, 8)
    flat = [i for ids in plan for i in ids]
    assert flat != list(range(len(flat)))  # the walk was taken
    assert any(ids == list(range(ids[0], ids[0] + K)) for ids in plan)  # and the block test


@pytest.mark.parametrize("p", [4, 8, 16, 32])
def test_one_id_batch_takes_the_batch_route(p, rng, monkeypatch):
    """``encode_ids`` has no single-id fork: one id is a one-row
    product, equal to the ``field.dot`` oracle."""
    encoder = make_encoder(p)
    data = rng.bytes(encoder.params.file_bytes)
    source = encoder.source_matrix(data)
    oracle = reference_message(encoder, data, 7)
    monkeypatch.setattr(encoder, "encode_message", None)  # not consulted
    (msg,) = encoder.encode_ids(source, [7])
    assert msg.to_bytes() == oracle.to_bytes()
    assert msg.payload.dtype == oracle.payload.dtype and not msg.payload.flags.writeable
    assert encoder.encode_ids(source, []) == []


def test_one_encode_span_per_chunk(rng):
    """A chunk is one ``rlnc.encode`` span covering all ``n_peers * k``
    messages; the message counter totals the same."""
    encoder = make_encoder(16)
    data = rng.bytes(encoder.params.file_bytes)
    with observability(tracing=True, reset=True):
        encoder.encode_bundles(data, n_peers=3)
        starts = [
            ev.fields
            for ev in TRACER.events()
            if ev.name == "span.start" and ev.fields["op"] == "rlnc.encode"
        ]
        produced = REGISTRY.snapshot()["repro.rlnc.encode.messages"]["value"]
    assert [s["attrs"] for s in starts] == [{"messages": 3 * K}]
    assert produced == 3 * K


def walked(plan):
    """Indices of the bundles that skipped an id (their block was deficient)."""
    return [i for i, ids in enumerate(plan) if ids[-1] - ids[0] != K - 1]


def test_speculation_restarts_after_every_deficient_block():
    """GF(2^4), k = 8: about one block in fourteen is deficient, so 200
    bundles take the accept-a-prefix / walk / speculate-again path many
    times, from a start id that is not a multiple of k."""
    encoder, reference = make_encoder(4), make_encoder(4)
    plan = encoder.independent_ids(200, start_id=3)
    assert plan == reference_ids(reference, 200, start_id=3)
    assert len(walked(plan)) >= 8


def test_deficient_block_first_and_last():
    encoder, reference = make_encoder(4), make_encoder(4)
    ref = reference_ids(reference, 200, start_id=3)
    at = walked(ref)[2]
    assert at > 0
    # last: the plan ends on the walked bundle
    assert encoder.independent_ids(at + 1, start_id=3) == ref[: at + 1]
    # first: the plan starts where that bundle's candidates start
    assert encoder.independent_ids(5, start_id=ref[at][0]) == ref[at : at + 5]
    # alone: first and last at once
    assert encoder.independent_ids(1, start_id=ref[at][0]) == [ref[at]]


@pytest.fixture
def stacks(monkeypatch):
    """Blocks per ``is_invertible`` call, counted at the encoder's call site."""
    from repro.rlnc import encoder as encoder_module

    seen = []
    real = encoder_module.is_invertible

    def counting(field, stack):
        seen.append(stack.shape[0])
        return real(field, stack)

    monkeypatch.setattr(encoder_module, "is_invertible", counting)
    return seen


def test_screening_work_is_linear_in_bundles(stacks):
    """A deficient block makes the blocks speculated behind it be screened
    again, so the look-ahead must stay near the expected run of full-rank
    blocks (about ``q``): at most 3 eliminations per bundle."""
    count = 2000
    plan = make_encoder(4).independent_ids(count)
    assert len(plan) == count and len(walked(plan)) > 100
    assert sum(stacks) <= 3 * count
    # a pass ends on a deficient block or with all q = 16 blocks accepted
    assert len(stacks) <= len(walked(plan)) + count // 16 + 1


def test_look_ahead_is_capped_by_bytes(stacks):
    """k = 64: 2^16 candidate symbols are 16 blocks, however many peers."""
    params = CodingParams(p=8, m=64, file_bytes=64 * 64)
    plan = FileEncoder(params, b"owner", 1).independent_ids(40)
    assert [len(ids) for ids in plan] == [64] * 40
    assert stacks[0] == max(stacks) == 16 and sum(stacks) >= 40


@pytest.mark.parametrize("m", [1, 33, 577])
def test_odd_m_at_p4_keeps_the_files_nibble_layout(m, rng):
    """At ``p = 4`` with an odd ``m`` the file's nibbles run on across
    source rows while every record starts on a byte: the records the
    encoder multiplies must be ``X`` of Equation (1) all the same, so
    the messages equal the symbol-domain product packed, and both
    decoders give the file back."""
    params = CodingParams(p=4, m=m, file_bytes=K * m // 2)
    encoder = FileEncoder(params, b"owner", 0x0DD)
    data = rng.bytes(params.file_bytes)
    ids = [i for bundle in encoder.independent_ids(2) for i in bundle]
    messages = encoder.encode_ids(encoder.source_matrix(data), ids)
    beta = encoder.coefficients.matrix(ids)
    want = pack_rows(encoder.field.matmul(beta, reshape_file_matrix(data, 4, params.k, m)), 4)
    assert b"".join(bytes(x.payload_bytes()) for x in messages) == want.tobytes()
    assert all(x.m == m and x.payload_bytes()[-1] & 0x0F == 0 for x in messages)
    decoder = ProgressiveDecoder(params, encoder.coefficients)
    decoder.offer_many(messages[K:])
    assert decoder.result(len(data)) == data
    block = BlockDecoder(params, encoder.coefficients)
    assert block.decode(messages[:K], length=len(data)) == data
