"""Trusting downloads authenticate at rank: same downloads as checking first.

Without a policy the decoder holds the digests and checks its pending
rows in one batch when they complete the rank (or earlier: a dependent
arrival, a repeated pending id).  A forged innovative row is reported
``ACCEPTED`` and revoked at that check; ``ParallelDownloader`` moves it
from delivered to rejected, and settles what is pending when a download
ends short of rank ``k``.  The reference here is the contract the
decoder had before: every message's digest checked before it reaches a
decoder that holds none.  Both see the same peers serving interleaved
honest, forged innovative, forged dependent, duplicate-id and
unknown-id arrivals, with or without a repair trigger; the reports, the
trigger's firings and the decoded bytes must agree, and every row
``result()`` uses must have passed its digest.
"""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import TRACER, observability
from repro.obs.events import RLNC_REVOKE
from repro.repair.monitor import DownloadRepairTrigger
from repro.repair.recombine import RepairableCoefficients, RepairRecord, recombine
from repro.rlnc import CodingParams, EncodedMessage, FileEncoder, Offer, ProgressiveDecoder
from repro.security import DigestStore
from repro.transfer import ParallelDownloader

FILE_ID = 0xA7
KINDS = ("honest", "forged", "forged_dependent", "duplicate", "unknown")


class CheckFirst:
    """The decoder's contract before verify-at-rank: a message's digest is
    checked before it reaches a :class:`ProgressiveDecoder` holding
    none, after the checks that came first (completion, file, shape, a
    seen id)."""

    def __init__(self, params, coefficients, store):
        self.inner = ProgressiveDecoder(params, coefficients)
        self.store = store
        self.refused = 0

    is_complete = property(lambda self: self.inner.is_complete)
    needed = property(lambda self: self.inner.needed)

    def offer(self, msg):
        inner = self.inner
        if (
            inner.is_complete
            or msg.file_id != inner.coefficients.file_id
            or (msg.m, msg.p) != (inner.params.m, inner.params.p)
            or msg.message_id in inner._seen_ids
            or self.store.verify(msg.file_id, msg.message_id, msg.payload_bytes())
        ):
            return inner.offer(msg)
        self.refused += 1
        return Offer.REJECTED

    def offer_many(self, messages):
        outcomes = []
        for msg in messages:
            if self.is_complete:
                break
            outcomes.append(self.offer(msg))
        return outcomes


class ScriptedPeer:
    """A serving session that sends its list, ``per_slot`` messages a slot."""

    def __init__(self, messages, per_slot):
        self.queue, self.per_slot, self.stopped = list(messages), per_slot, False

    @property
    def active(self):
        return not self.stopped and bool(self.queue)

    @property
    def remaining(self):
        return 0 if self.stopped else len(self.queue)

    def serve(self, budget):
        sent, self.queue = self.queue[: self.per_slot], self.queue[self.per_slot :]
        return [SimpleNamespace(message=msg) for msg in sent]

    def stop(self, message):
        self.stopped = True


def _flip(msg):
    payload = np.array(msg.payload)
    payload[0] ^= 1
    return msg.with_payload(payload)


@lru_cache(maxsize=None)
def _world(p, k):
    params = CodingParams(p=p, m=6, file_bytes=k * 6 * p // 8)
    data = np.random.default_rng(p * 100 + k).bytes(params.file_bytes)
    encoder = FileEncoder(params, secret=b"owner", file_id=FILE_ID)
    source = encoder.source_matrix(data)
    # Unscreened ids: at p = 4 some arrive dependent by chance.
    fresh = encoder.encode_ids(source, range(2 * k + 2))
    helpers = fresh[: max(k - 2, 1)]
    record = RepairRecord(FILE_ID, 0, tuple(m.message_id for m in helpers), min(len(helpers), 2))
    repaired = recombine(record, helpers, encoder.field)
    spare = encoder.encode_ids(source, range(1000, 1000 + k))  # repair's fresh messages
    store = DigestStore()
    store.record_many(FILE_ID, [m.message_id for m in fresh + repaired + spare],
                      [m.payload_bytes() for m in fresh + repaired + spare])
    pools = {
        "honest": fresh,
        "forged": [_flip(m) for m in fresh],
        "forged_dependent": [_flip(m) for m in repaired],
        "duplicate": fresh,
        "unknown": [EncodedMessage(FILE_ID, 10_000 + i, m.payload, p) for i, m in enumerate(fresh)],
        "spare": spare,
    }
    coefficients = RepairableCoefficients(encoder.coefficients, [record])
    return params, data, helpers + repaired, pools, store, coefficients


def _download(decoder, streams, per_slot, max_slots, threshold=None, spare=()):
    """Run one download; with a ``threshold``, a repair trigger whose hook
    hands the first peer ``needed`` fresh messages.  Returns the report
    and the ``needed`` of each firing."""
    peers = [ScriptedPeer(s, n) for s, n in zip(streams, per_slot)]
    fired = []

    def hook(needed):
        fired.append(needed)
        peers[0].queue += spare[:needed]
        return min(needed, len(spare))

    repair = None if threshold is None else DownloadRepairTrigger(hook, threshold)
    downloader = ParallelDownloader(peers, decoder, lambda i, t: 8.0, repair=repair)
    return downloader.run(max_slots, file_id=FILE_ID), fired


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([4, 8]),
    k=st.sampled_from([2, 4, 6]),
    picks=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 63)), max_size=30),
    peers=st.integers(1, 3),
    per_slot=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    helpers_first=st.booleans(),
    max_slots=st.sampled_from([3, 10_000]),
    threshold=st.sampled_from([None, 0.5, 1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_trusting_download_equals_checking_first(
    p, k, picks, peers, per_slot, helpers_first, max_slots, threshold, seed
):
    params, data, lead, pools, store, coefficients = _world(p, k)
    stream = [pools[kind][i % len(pools[kind])] for kind, i in picks]
    stream += pools["honest"]
    np.random.default_rng(seed).shuffle(stream)
    if helpers_first:
        # The repaired messages' coefficients then cancel on arrival.
        stream = lead + stream
    streams = [stream[i::peers] for i in range(peers)]

    reference = CheckFirst(params, coefficients, store)
    spare = pools["spare"]
    expected, expected_fired = _download(reference, streams, per_slot, max_slots, threshold, spare)
    decoder = ProgressiveDecoder(params, coefficients, store)
    report, fired = _download(decoder, streams, per_slot, max_slots, threshold, spare)

    assert fired == expected_fired
    for field in ("complete", "slots", "bytes_received", "messages_delivered",
                  "messages_rejected", "messages_dependent"):
        assert getattr(report, field) == getattr(expected, field), field
    assert decoder.accepted == reference.inner.accepted
    assert decoder.dependent == reference.inner.dependent
    assert decoder.rejected == reference.inner.rejected + reference.refused
    assert decoder.rank == reference.inner.rank  # settled when incomplete
    if report.complete:
        # Every row result() multiplies has passed its digest.
        assert store.verify_many(FILE_ID, decoder._ids, decoder._payloads) == [True] * k
        assert decoder.result() == reference.inner.result() == data


def test_forged_row_is_revoked_once_and_its_id_freed():
    """The timing, outcome by outcome, for one forged innovative row."""
    params, data, _, pools, store, coefficients = _world(8, 4)
    honest, forged = pools["honest"], pools["forged"]
    decoder = ProgressiveDecoder(params, coefficients, store)
    with observability(tracing=True, reset=True):
        assert decoder.offer(forged[0]) is Offer.ACCEPTED  # admitted, unchecked
        assert (decoder.rank, decoder.accepted, decoder.rejected) == (1, 1, 0)
        assert decoder.offer_many(honest[1:3]) == [Offer.ACCEPTED] * 2
        # The fourth row would complete the rank: the batch check finds
        # row 0 forged (the revocation leaves rank 2), so the arrival is
        # accepted at rank 3, not complete.
        assert decoder.offer(honest[3]) is Offer.ACCEPTED
        revokes = [ev.fields for ev in TRACER.events() if ev.name == RLNC_REVOKE]
    assert revokes == [{"file_id": FILE_ID, "message_id": honest[0].message_id, "rank": 2}]
    assert (decoder.rank, decoder.accepted, decoder.rejected, decoder.revoked) == (3, 3, 1, 1)
    assert honest[0].message_id not in decoder._seen_ids
    assert decoder.offer(honest[0]) is Offer.COMPLETE
    assert decoder.result() == data
    assert (decoder.rejected, decoder.revoked) == (1, 1)


def test_incomplete_download_settles_pending_rows():
    """A download that runs out of slots settles the pending rows, so the
    report counts the forged one rejected, not delivered."""
    params, _, _, pools, store, coefficients = _world(8, 4)
    stream = [pools["forged"][0], *pools["honest"][1:3]]
    decoder = ProgressiveDecoder(params, coefficients, store)
    report, _ = _download(decoder, [stream], [1], 10)
    assert not report.complete
    assert (report.messages_delivered, report.messages_rejected) == (2, 1)
    assert (decoder.rank, decoder.revoked) == (2, 1)
    assert decoder.settle() == 0


def test_repair_trigger_sees_the_need_without_pending_forgeries():
    """Forged rows still pending would understate ``needed``; the trigger
    fires once, so it must read the need of authentic rows only."""
    params, data, _, pools, store, coefficients = _world(8, 8)
    stream = [*pools["forged"][:3], *pools["honest"][3:5]]
    decoder = ProgressiveDecoder(params, coefficients, store)
    report, fired = _download(decoder, [stream], [1], 50, 0.5, pools["spare"])
    reference = CheckFirst(params, coefficients, store)
    expected, expected_fired = _download(reference, [stream], [1], 50, 0.5, pools["spare"])
    # Two forged rows are refused when the trigger fires at slot 2.
    assert fired == expected_fired == [8]
    assert report.complete and expected.complete
    assert (report.messages_delivered, report.messages_rejected) == (8, 3)
    assert decoder.result() == data


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([4, 8, 32]),
    k=st.sampled_from([4, 6]),
    picks=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 63)), max_size=40),
    settle_at=st.sets(st.integers(0, 39)),
)
def test_revocation_leaves_the_elimination_of_the_kept_rows(p, k, picks, settle_at):
    """After every offer, a decoder's elimination is the one a decoder
    holding no digests builds from its kept rows alone, in their order:
    restoring the last checked state and re-stepping the rows after it
    equals eliminating every kept row afresh."""
    params, _, _, pools, store, coefficients = _world(p, k)
    by_id = {m.message_id: m for pool in pools.values() for m in pool}
    decoder = ProgressiveDecoder(params, coefficients, store)
    for n, (kind, i) in enumerate(picks):
        decoder.offer(pools[kind][i % len(pools[kind])])
        if n in settle_at:
            decoder.settle()
        if decoder.is_complete:
            break
        # The elimination reads coefficient rows only: any message with
        # a kept row's id stands in for it.
        fresh = ProgressiveDecoder(params, coefficients)
        for message_id in decoder._ids:
            assert fresh.offer(by_id[message_id]) in (Offer.ACCEPTED, Offer.COMPLETE)
        rank = decoder.rank
        assert fresh.rank == rank
        if rank:
            assert np.array_equal(decoder._reduced[:rank], fresh._reduced[:rank])
            assert np.array_equal(decoder._pivots[:rank], fresh._pivots[:rank])
