"""Unit tests for block and progressive decoding."""

import numpy as np
import pytest

from repro.gf import GF
from repro.obs import REGISTRY, TRACER, observability
from repro.obs.events import RLNC_OFFER
from repro.rlnc import (
    BlockDecoder,
    CodingParams,
    DecodeError,
    EncodedMessage,
    FileEncoder,
    Offer,
    ProgressiveDecoder,
    symbols_to_bytes,
)
from repro.security import DigestStore

PARAMS = CodingParams(p=16, m=64, file_bytes=1024)  # k = 8


@pytest.fixture
def setup(rng):
    data = rng.bytes(1000)
    store = DigestStore()
    encoder = FileEncoder(PARAMS, secret=b"owner", file_id=0xF00D)
    encoded = encoder.encode_bundles(data, n_peers=3, digest_store=store)
    return data, encoder, encoded, store


class TestBlockDecoder:
    def test_decode_one_bundle(self, setup):
        data, encoder, encoded, _ = setup
        dec = BlockDecoder(PARAMS, encoder.coefficients)
        assert dec.decode(encoded.bundles[0], length=len(data)) == data

    def test_decode_mixed_bundles(self, setup):
        data, encoder, encoded, _ = setup
        mix = list(encoded.bundles[0][:3]) + list(encoded.bundles[1][3:])
        dec = BlockDecoder(PARAMS, encoder.coefficients)
        assert dec.decode(mix, length=len(data)) == data

    def test_duplicates_dont_count(self, setup):
        data, encoder, encoded, _ = setup
        msgs = [encoded.bundles[0][0]] * 10
        dec = BlockDecoder(PARAMS, encoder.coefficients)
        with pytest.raises(DecodeError):
            dec.decode(msgs)

    def test_too_few_messages(self, setup):
        _, encoder, encoded, _ = setup
        dec = BlockDecoder(PARAMS, encoder.coefficients)
        with pytest.raises(DecodeError):
            dec.decode(encoded.bundles[0][: PARAMS.k - 1])

    def test_wrong_file_rejected(self, setup):
        data, encoder, encoded, _ = setup
        other = FileEncoder(PARAMS, b"owner", file_id=0xBEEF)
        dec = BlockDecoder(PARAMS, other.coefficients)
        with pytest.raises(DecodeError):
            dec.decode(encoded.bundles[0])

    def test_wrong_secret_garbage(self, setup):
        """An attacker guessing the wrong key gets bytes, not the file —
        decoding succeeds mechanically but the output is wrong."""
        data, encoder, encoded, _ = setup
        attacker = FileEncoder(PARAMS, b"wrong-secret", file_id=0xF00D)
        dec = BlockDecoder(PARAMS, attacker.coefficients)
        out = dec.decode(encoded.bundles[0], length=len(data))
        assert out != data

    def test_default_length_padded(self, setup):
        data, encoder, encoded, _ = setup
        dec = BlockDecoder(PARAMS, encoder.coefficients)
        out = dec.decode(encoded.bundles[0])
        assert len(out) == PARAMS.file_bytes
        assert out[: len(data)] == data


class TestProgressiveDecoder:
    def test_any_order_any_mix(self, setup, rng):
        data, encoder, encoded, store = setup
        msgs = encoded.all_messages()
        rng.shuffle(msgs)
        dec = ProgressiveDecoder(PARAMS, encoder.coefficients, store)
        for msg in msgs:
            if dec.offer(msg) == Offer.COMPLETE:
                break
        assert dec.is_complete
        assert dec.result(len(data)) == data
        assert dec.accepted == PARAMS.k

    def test_needed_counts_down(self, setup):
        data, encoder, encoded, _ = setup
        dec = ProgressiveDecoder(PARAMS, encoder.coefficients)
        assert dec.needed == PARAMS.k
        for i, msg in enumerate(encoded.bundles[0]):
            dec.offer(msg)
            assert dec.needed == PARAMS.k - i - 1

    def test_duplicate_is_dependent(self, setup):
        _, encoder, encoded, _ = setup
        dec = ProgressiveDecoder(PARAMS, encoder.coefficients)
        msg = encoded.bundles[0][0]
        assert dec.offer(msg) == Offer.ACCEPTED
        assert dec.offer(msg) == Offer.DEPENDENT
        assert dec.dependent == 1

    def test_forged_message_rejected(self, setup):
        data, encoder, encoded, store = setup
        dec = ProgressiveDecoder(PARAMS, encoder.coefficients, store)
        msg = encoded.bundles[0][0]
        forged = msg.with_payload(np.asarray(msg.payload) ^ 1)
        # An innovative row is admitted pending, its digest unchecked...
        assert dec.offer(forged) == Offer.ACCEPTED
        assert (dec.rank, dec.accepted, dec.rejected) == (1, 1, 0)
        # ...until an arrival repeats its id: the check drops it, the
        # genuine message takes its place.
        assert dec.offer(msg) == Offer.ACCEPTED
        assert (dec.rank, dec.accepted, dec.rejected, dec.revoked) == (1, 1, 1, 1)
        for other in encoded.bundles[0][1:]:
            dec.offer(other)
        assert dec.result(len(data)) == data
        assert dec.rejected == 1

    def test_forgery_without_digests_caught_by_consistency(self, rng):
        """Even with no digest store, a dependent-coefficient message
        whose payload contradicts the honest span is rejected.

        Uses GF(2^4) where genuinely dependent fresh ids are easy to
        find, feeds honest rows first, then a tampered message on a
        dependent id: its coefficient part reduces to zero but the
        payload does not -> inconsistent -> REJECTED.
        """
        from repro.gf import IncrementalRank

        params = CodingParams(p=4, m=16, file_bytes=32)  # k = 4
        data = rng.bytes(32)
        encoder = FileEncoder(params, b"owner", file_id=0x77)
        source = encoder.source_matrix(data)
        ids = encoder.independent_ids(1)[0]
        dec = ProgressiveDecoder(params, encoder.coefficients)
        for mid in ids[:-1]:
            assert dec.offer(encoder.encode_message(source, mid)) == Offer.ACCEPTED

        # Find a *fresh* id whose coefficient row lies in the span of
        # the absorbed k-1 rows.
        tracker = IncrementalRank(encoder.field, params.k)
        for mid in ids[:-1]:
            tracker.offer(encoder.coefficients.row(mid))
        dependent_id = None
        for candidate in range(1000, 2000):
            probe = IncrementalRank(encoder.field, params.k)
            for mid in ids[:-1]:
                probe.offer(encoder.coefficients.row(mid))
            if not probe.offer(encoder.coefficients.row(candidate)):
                dependent_id = candidate
                break
        assert dependent_id is not None, "GF(2^4) should yield one quickly"

        honest = encoder.encode_message(source, dependent_id)
        # An honest dependent message is just DEPENDENT...
        probe_dec = ProgressiveDecoder(params, encoder.coefficients)
        for mid in ids[:-1]:
            probe_dec.offer(encoder.encode_message(source, mid))
        assert probe_dec.offer(honest) == Offer.DEPENDENT
        # ...but a tampered one is REJECTED as inconsistent.
        forged = honest.with_payload(np.asarray(honest.payload) ^ 0x5)
        assert dec.offer(forged) == Offer.REJECTED

    def test_wrong_file_rejected(self, setup):
        _, encoder, encoded, _ = setup
        other = FileEncoder(PARAMS, b"owner", file_id=0x1234)
        data2 = b"z" * 100
        msg2 = other.encode_bundles(data2, 1).bundles[0][0]
        dec = ProgressiveDecoder(PARAMS, encoder.coefficients)
        assert dec.offer(msg2) == Offer.REJECTED

    def test_wrong_shape_rejected(self, setup):
        _, encoder, _, _ = setup
        bad_params = CodingParams(p=16, m=32, file_bytes=512)
        other = FileEncoder(bad_params, b"owner", file_id=0xF00D)
        msg = other.encode_bundles(b"q" * 10, 1).bundles[0][0]
        dec = ProgressiveDecoder(PARAMS, encoder.coefficients)
        assert dec.offer(msg) == Offer.REJECTED

    def test_result_before_complete_raises(self, setup):
        _, encoder, encoded, _ = setup
        dec = ProgressiveDecoder(PARAMS, encoder.coefficients)
        dec.offer(encoded.bundles[0][0])
        with pytest.raises(DecodeError):
            dec.result()

    def test_offers_after_complete_ignored(self, setup):
        data, encoder, encoded, _ = setup
        dec = ProgressiveDecoder(PARAMS, encoder.coefficients)
        for msg in encoded.bundles[0]:
            dec.offer(msg)
        assert dec.is_complete
        assert dec.offer(encoded.bundles[1][0]) == Offer.COMPLETE
        assert dec.accepted == PARAMS.k

    def test_matches_block_decoder(self, setup):
        data, encoder, encoded, _ = setup
        block = BlockDecoder(PARAMS, encoder.coefficients)
        prog = ProgressiveDecoder(PARAMS, encoder.coefficients)
        for msg in encoded.bundles[2]:
            prog.offer(msg)
        assert prog.result(len(data)) == block.decode(
            encoded.bundles[2], length=len(data)
        )

    def test_result_with_pivots_out_of_column_order(self, rng):
        """``result()`` reads the inverse off the reduced rows, each at
        its pivot's row: coefficient rows whose leading zeros shrink make
        the pivots arrive as k-1, k-2, ..., 0."""

        class AntiTriangular:
            file_id = 0xABCD

            def __init__(self, field, k):
                self.field = field
                self.rows = field.random_nonzero((k, k), rng)
                for i in range(k):
                    self.rows[i, : k - 1 - i] = 0

            def row(self, message_id):
                return self.rows[message_id]

            def matrix(self, ids):
                return self.rows[list(ids)]

        field = GF(PARAMS.p)
        coefficients = AntiTriangular(field, PARAMS.k)
        source = field.random((PARAMS.k, PARAMS.m), rng)
        payloads = field.matmul(coefficients.rows, source)
        messages = [
            EncodedMessage(coefficients.file_id, i, payloads[i], PARAMS.p)
            for i in range(PARAMS.k)
        ]
        prog = ProgressiveDecoder(PARAMS, coefficients)
        assert prog.offer_many(messages)[-1] == Offer.COMPLETE
        assert list(prog._pivots) == list(range(PARAMS.k - 1, -1, -1))
        decoded = prog.result()
        assert decoded == BlockDecoder(PARAMS, coefficients).decode(messages)
        assert decoded == symbols_to_bytes(source.reshape(-1), PARAMS.p)


def _find_dependent_id(encoder, absorbed_ids, k):
    """A fresh id whose coefficient row lies in the span of ``absorbed_ids``."""
    from repro.gf import IncrementalRank

    for candidate in range(1000, 5000):
        probe = IncrementalRank(encoder.field, k)
        for mid in absorbed_ids:
            probe.offer(encoder.coefficients.row(mid))
        if not probe.offer(encoder.coefficients.row(candidate)):
            return candidate
    raise AssertionError("no dependent id found (small field should yield one)")


class TestSeenIdsRegression:
    """A forged offer must never permanently block its message id.

    Regression for a bug where ``_seen_ids.add`` ran before the
    inconsistent-row rejection: the polluted message recorded the id, so
    the authentic message with the same id later returned ``DEPENDENT``
    without even being eliminated, and re-offers of the forged row were
    misclassified as authentic-but-dependent.
    """

    def test_forged_then_authentic_same_id_accepted(self, setup):
        # Digest-store path: the forged copy is admitted pending and
        # dropped by the digest check the authentic copy with the SAME id
        # triggers; that copy must still be accepted, and the decode
        # must finish with the true bytes.  The forged copy that would
        # complete the rank is checked on its own offer and rejected.
        data, encoder, encoded, store = setup
        dec = ProgressiveDecoder(PARAMS, encoder.coefficients, store)
        for i, msg in enumerate(encoded.bundles[0]):
            forged = msg.with_payload(np.asarray(msg.payload) ^ 1)
            last = i == PARAMS.k - 1
            assert dec.offer(forged) == (Offer.REJECTED if last else Offer.ACCEPTED)
            assert dec.rejected == i + last
            outcome = dec.offer(msg)
            assert outcome == (Offer.COMPLETE if last else Offer.ACCEPTED)
            assert dec.rejected == i + 1  # the forged copy, once
        assert dec.is_complete
        assert dec.result(len(data)) == data
        assert (dec.rejected, dec.revoked) == (PARAMS.k, PARAMS.k - 1)

    def test_inconsistent_rejection_leaves_id_unseen(self, rng):
        # No digest store: the forged row on a dependent id is caught by
        # the span-consistency check; the id must stay unseen.
        params = CodingParams(p=4, m=16, file_bytes=32)  # k = 4
        data = rng.bytes(32)
        encoder = FileEncoder(params, b"owner", file_id=0x77)
        source = encoder.source_matrix(data)
        ids = encoder.independent_ids(1)[0]
        dec = ProgressiveDecoder(params, encoder.coefficients)
        dep_id = _find_dependent_id(encoder, ids[:-1], params.k)
        honest = encoder.encode_message(source, dep_id)
        forged = honest.with_payload(np.asarray(honest.payload) ^ 0x5)

        with observability(reset=True):
            for mid in ids[:-1]:
                assert dec.offer(encoder.encode_message(source, mid)) == Offer.ACCEPTED

            assert dec.offer(forged) == Offer.REJECTED
            assert dec.inconsistent == 1
            assert dep_id not in dec._seen_ids

            # Re-offering the forged row is REJECTED again — the buggy
            # version returned DEPENDENT (as if it were authentic).
            assert dec.offer(forged) == Offer.REJECTED
            assert dec.inconsistent == 2

            # The honest message on that id is correctly DEPENDENT (its
            # row really is in the span) and only now records the id.
            assert dec.offer(honest) == Offer.DEPENDENT
            assert dep_id in dec._seen_ids

            # The decode still completes with the true bytes.
            assert dec.offer(encoder.encode_message(source, ids[-1])) == Offer.COMPLETE
            snap = REGISTRY.snapshot()
        assert dec.result(len(data)) == data
        # Only the three rows whose coefficients cancelled paid for a
        # payload residual; the four innovative ones never did.
        assert snap["repro.rlnc.decode.residual_checks"]["value"] == 3
        assert snap["repro.rlnc.decode.inconsistent"]["value"] == 2


class TestOfferManyWarmsRows:
    """``offer_many`` generates the batch's rows in one call first; the
    offers themselves are unchanged."""

    class RowsOnly:
        """The owner's generator without ``warm``: rows one at a time."""

        def __init__(self, inner):
            self.inner = inner
            self.file_id = inner.file_id

        def row(self, message_id):
            return self.inner.row(message_id)

    def _arrivals(self, encoded):
        forged = encoded.bundles[1][0].with_payload(encoded.bundles[1][0].payload ^ 1)
        stranger = FileEncoder(PARAMS, secret=b"owner", file_id=0xBEEF).encode_bundles(
            bytes(100), n_peers=1
        ).bundles[0][0]
        batch = [*encoded.bundles[0][:5], forged, stranger, encoded.bundles[0][2]]
        return [batch, [*encoded.bundles[1][1:4], *encoded.bundles[2]]]

    def _run(self, coefficients, store, batches):
        decoder = ProgressiveDecoder(PARAMS, coefficients, digest_store=store)
        with observability(tracing=True, reset=True):
            outcomes = [decoder.offer_many(batch) for batch in batches]
            events = [ev.fields for ev in TRACER.events() if ev.name == RLNC_OFFER]
            counters = {
                name: REGISTRY.snapshot().get(name)
                for name in ("repro.rlnc.decode.innovative", "repro.rlnc.decode.dependent",
                             "repro.rlnc.decode.rejected")
            }
        counts = (decoder.accepted, decoder.dependent, decoder.rejected, decoder.inconsistent)
        return outcomes, events, counters, counts, decoder.result()

    def test_same_offers_as_row_by_row(self, setup, monkeypatch):
        data, _, encoded, store = setup
        batches = self._arrivals(encoded)
        fresh = FileEncoder(PARAMS, secret=b"owner", file_id=0xF00D).coefficients
        calls = {"many": 0, "single": 0}
        stream = fresh._stream
        many, single = stream.symbols_many, stream.symbols

        def symbols_many(*args):
            calls["many"] += 1
            return many(*args)

        def symbols(*args):
            calls["single"] += 1
            return single(*args)

        monkeypatch.setattr(stream, "symbols_many", symbols_many)
        monkeypatch.setattr(stream, "symbols", symbols)
        warmed = self._run(fresh, store, batches)
        assert calls == {"many": 2, "single": 0}
        reference = FileEncoder(PARAMS, secret=b"owner", file_id=0xF00D).coefficients
        assert warmed == self._run(self.RowsOnly(reference), store, batches)
        assert warmed[-1][: len(data)] == data
