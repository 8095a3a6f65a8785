"""Batched ``offer_many`` must be indistinguishable from a sequential loop.

The oracle is a twin decoder fed the same messages one at a time via
``offer``; outcomes, counters, rank trajectory, and the decoded bytes
must match exactly, with observability on and off, for honest traffic,
duplicates, forged payloads, and wrong-file noise.
"""

import numpy as np

from repro.obs import REGISTRY, observability
from repro.rlnc import CodingParams, FileEncoder, Offer, ProgressiveDecoder
from repro.security import DigestStore

PARAMS = CodingParams(p=8, m=64, file_bytes=1024)  # k = 16


def make_stream(rng, with_store=True, forged=0, wrong_file=0, duplicates=0):
    data = rng.bytes(900)
    store = DigestStore() if with_store else None
    encoder = FileEncoder(PARAMS, secret=b"owner", file_id=0xAB)
    encoded = encoder.encode_bundles(data, n_peers=2, digest_store=store)
    msgs = encoded.all_messages()
    rng.shuffle(msgs)
    for i in range(duplicates):
        msgs.insert(int(rng.integers(len(msgs))), msgs[i])
    for i in range(forged):
        victim = msgs[int(rng.integers(len(msgs)))]
        msgs.insert(
            int(rng.integers(len(msgs))),
            victim.with_payload(np.asarray(victim.payload) ^ (i + 1)),
        )
    if wrong_file:
        other = FileEncoder(PARAMS, secret=b"owner", file_id=0xCD)
        noise = other.encode_bundles(rng.bytes(100), 1).bundles[0]
        for i in range(wrong_file):
            msgs.insert(int(rng.integers(len(msgs))), noise[i])
    return data, encoder, store, msgs


def assert_equivalent(encoder, store, msgs, data, batch_sizes):
    """Feed ``msgs`` to a batched and a sequential decoder; compare all."""
    batched = ProgressiveDecoder(PARAMS, encoder.coefficients, store)
    sequential = ProgressiveDecoder(PARAMS, encoder.coefficients, store)

    seq_outcomes = []
    for msg in msgs:
        if sequential.is_complete:
            break
        seq_outcomes.append(sequential.offer(msg))

    batch_outcomes = []
    queue = list(msgs)
    sizes = list(batch_sizes)
    while queue:
        size = sizes.pop(0) if sizes else len(queue)
        chunk, queue = queue[:size], queue[size:]
        batch_outcomes.extend(batched.offer_many(chunk))

    assert batch_outcomes == seq_outcomes
    for attr in ("accepted", "dependent", "rejected", "inconsistent", "revoked", "rank"):
        assert getattr(batched, attr) == getattr(sequential, attr), attr
    assert batched.is_complete == sequential.is_complete
    if batched.is_complete:
        assert batched.result(len(data)) == data
        assert batched.result() == sequential.result()
    return batched


class TestOfferManyEquivalence:
    def test_honest_stream(self, rng):
        data, encoder, store, msgs = make_stream(rng)
        assert_equivalent(encoder, store, msgs, data, [3, 1, 7])

    def test_single_big_batch(self, rng):
        data, encoder, store, msgs = make_stream(rng)
        dec = assert_equivalent(encoder, store, msgs, data, [len(msgs)])
        assert dec.is_complete

    def test_adversarial_stream(self, rng):
        data, encoder, store, msgs = make_stream(
            rng, forged=4, wrong_file=2, duplicates=3
        )
        assert_equivalent(encoder, store, msgs, data, [5, 5, 5, 5])

    def test_no_digest_store(self, rng):
        data, encoder, _, msgs = make_stream(
            rng, with_store=False, duplicates=2
        )
        assert_equivalent(encoder, None, msgs, data, [4, 4])

    def test_batch_with_duplicate_inside_batch(self, rng):
        """Two copies of one id in the same batch: second is DEPENDENT."""
        data, encoder, store, msgs = make_stream(rng)
        doubled = [msgs[0], msgs[0]] + msgs[1:]
        assert_equivalent(encoder, store, doubled, data, [2, 6])

    def test_consumes_nothing_when_complete(self, rng):
        data, encoder, store, msgs = make_stream(rng)
        dec = ProgressiveDecoder(PARAMS, encoder.coefficients, store)
        dec.offer_many(msgs)
        assert dec.is_complete
        assert dec.offer_many(msgs) == []

    def test_consumed_prefix_stops_at_complete(self, rng):
        data, encoder, store, msgs = make_stream(rng)
        dec = ProgressiveDecoder(PARAMS, encoder.coefficients, store)
        outcomes = dec.offer_many(msgs)
        assert outcomes[-1] == Offer.COMPLETE
        assert len(outcomes) <= len(msgs)
        assert dec.result(len(data)) == data

    def test_equivalent_with_observability_on(self, rng):
        data, encoder, store, msgs = make_stream(rng, forged=2, duplicates=2)
        with observability(reset=True):
            dec = assert_equivalent(encoder, store, msgs, data, [6, 6, 6])
            snap = REGISTRY.snapshot()
        # Both decoders count into the same registry, so totals are even.
        # A forged row admitted pending counts innovative, then revoked.
        innovative = snap["repro.rlnc.decode.innovative"]["value"]
        revoked = snap["repro.rlnc.decode.revoked"]["value"]
        assert revoked == 2 * dec.revoked
        assert innovative - revoked == 2 * PARAMS.k

    def test_empty_batch(self, rng):
        _, encoder, store, _ = make_stream(rng)
        dec = ProgressiveDecoder(PARAMS, encoder.coefficients, store)
        assert dec.offer_many([]) == []
        assert dec.rank == 0


class TestOfferManyMatchesSequentialReference:
    def test_many_random_interleavings(self, rng):
        """Stress: random batch splits over an adversarial stream."""
        for trial in range(5):
            data, encoder, store, msgs = make_stream(
                rng, forged=trial, duplicates=trial % 3, wrong_file=trial % 2
            )
            sizes = [int(s) for s in rng.integers(1, 6, size=12)]
            assert_equivalent(encoder, store, msgs, data, sizes)
