"""Unit tests for the failure-aware download path (RobustPolicy)."""

import pytest

from repro.faults import FaultPlan, PeerFault
from repro.rlnc import CodingParams, FileEncoder, ProgressiveDecoder
from repro.security import DigestStore, generate_keypair
from repro.storage import MessageStore
from repro.transfer import (
    DownloadSession,
    LatencyModel,
    ParallelDownloader,
    RobustPolicy,
    ServingSession,
    SessionCrashed,
    scheduler,
)

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8
FILE_ID = 0x55


@pytest.fixture(scope="module")
def keys():
    return generate_keypair(bits=512, seed=9)


def build(rng, n_peers, keys, plan=None):
    """Encoded file served by ``n_peers``, wrapped per the fault plan.

    Returns ``(data, sessions, decoder, digests)``; each peer holds the
    full bundle so any single honest peer can complete the download.
    """
    data = rng.bytes(500)
    digests = DigestStore()
    encoder = FileEncoder(PARAMS, b"s", file_id=FILE_ID)
    encoded = encoder.encode_bundles(data, n_peers=n_peers, digest_store=digests)
    sessions = []
    for p in range(n_peers):
        mstore = MessageStore()
        mstore.add_messages(encoded.bundles[p])
        sessions.append(ServingSession(mstore, keys.public))
    if plan is not None:
        sessions = plan.wrap(sessions)
    for p, session in enumerate(sessions):
        accept, _, _ = DownloadSession(keys).handshake_with_retry(
            session, FILE_ID, peer=p
        )
    decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, digests)
    return data, sessions, decoder, digests


def run(sessions, decoder, digests, rate=20.0, max_slots=10_000, **kw):
    policy = RobustPolicy(digest_store=digests, **kw)
    dl = ParallelDownloader(sessions, decoder, lambda i, t: rate, policy=policy)
    return dl.run(max_slots, file_id=FILE_ID)


class TestPollution:
    def test_polluted_peer_quarantined_and_decode_succeeds(self, rng, keys):
        plan = FaultPlan(seed=1, faults={0: PeerFault("pollute")})
        data, sessions, decoder, digests = build(rng, 3, keys, plan)
        report = run(sessions, decoder, digests)
        assert report.complete
        assert decoder.result(len(data)) == data
        failure = report.failure_of(0)
        assert failure is not None and failure.kind == "polluted"
        assert failure.messages_discarded >= 1
        assert failure.bytes_discarded > 0
        # Verification happens *before* the decoder: nothing polluted
        # ever reached it, so it never had to reject a forged row.
        assert decoder.rejected == 0
        assert report.messages_rejected == 0

    def test_quarantine_threshold_respected(self, rng, keys, monkeypatch):
        monkeypatch.setattr(scheduler, "QUARANTINE_AFTER", 3)
        plan = FaultPlan(seed=1, faults={0: PeerFault("pollute")})
        data, sessions, decoder, digests = build(rng, 2, keys, plan)
        # At 1 kbps a slot carries about one message, so the count of
        # discards before the quarantine is the threshold itself.
        report = run(sessions, decoder, digests, rate=1.0)
        assert report.complete
        assert report.failure_of(0).messages_discarded == 3

    def test_no_digest_store_disables_filtering(self, rng, keys):
        # Without the carried digests the robust path cannot tell
        # pollution apart; the decoder's own consistency check is the
        # last line of defence.
        plan = FaultPlan(seed=1, faults={0: PeerFault("pollute")})
        data, sessions, decoder, digests = build(rng, 2, keys, plan)
        policy = RobustPolicy(digest_store=None)
        dl = ParallelDownloader(sessions, decoder, lambda i, t: 20.0, policy=policy)
        report = dl.run(10_000, file_id=FILE_ID)
        assert report.complete
        assert decoder.result(len(data)) == data
        assert decoder.rejected >= 1
        assert report.failure_of(0) is None  # pollution went unattributed


class TestCrash:
    def test_crash_survived_and_attributed(self, rng, keys):
        wire = 16 + PARAMS.m * PARAMS.p // 8
        plan = FaultPlan(seed=1, faults={0: PeerFault("crash", at_byte=wire * 2)})
        data, sessions, decoder, digests = build(rng, 2, keys, plan)
        report = run(sessions, decoder, digests)
        assert report.complete
        assert decoder.result(len(data)) == data
        assert report.failure_of(0).kind == "crashed"

    def test_pre_crash_messages_still_count(self, rng, keys):
        wire = 16 + PARAMS.m * PARAMS.p // 8
        # Generous rate: the crash budget covers 3 whole messages first.
        plan = FaultPlan(seed=1, faults={0: PeerFault("crash", at_byte=wire * 3)})
        data, sessions, decoder, digests = build(rng, 2, keys, plan)
        report = run(sessions, decoder, digests, rate=1000.0)
        assert report.complete
        assert report.messages_delivered >= PARAMS.k

    def test_crash_propagates_without_policy(self, rng, keys):
        plan = FaultPlan(seed=1, faults={0: PeerFault("crash", at_byte=0)})
        data, sessions, decoder, _ = build(rng, 1, keys, plan)
        dl = ParallelDownloader(sessions, decoder, lambda i, t: 20.0)
        with pytest.raises(SessionCrashed):
            dl.run(100, file_id=FILE_ID)


class TestStall:
    def test_stalled_peer_quarantined(self, rng, keys):
        plan = FaultPlan(
            seed=1, faults={0: PeerFault("stall", at_slot=0, duration=10_000)}
        )
        data, sessions, decoder, digests = build(rng, 2, keys, plan)
        # 1 kbps = 125 B/slot against a ~640-wire-byte file: the download
        # spans enough slots for the stall timeout to trip mid-run.
        report = run(sessions, decoder, digests, rate=1.0, stall_timeout_slots=4)
        assert report.complete
        failure = report.failure_of(0)
        assert failure.kind == "stalled"
        assert failure.bytes_discarded > 0  # the budget the silence wasted

    def test_short_stall_not_misclassified(self, rng, keys):
        plan = FaultPlan(
            seed=1, faults={0: PeerFault("stall", at_slot=0, duration=2)}
        )
        data, sessions, decoder, digests = build(rng, 2, keys, plan)
        report = run(sessions, decoder, digests, rate=40.0, stall_timeout_slots=12)
        assert report.complete
        assert report.failure_of(0) is None


class TestRefusal:
    def test_refused_peer_classified_at_start(self, rng, keys):
        plan = FaultPlan(seed=1, faults={0: PeerFault("refuse")})
        data, sessions, decoder, digests = build(rng, 2, keys, plan)
        report = run(sessions, decoder, digests)
        assert report.complete
        failure = report.failure_of(0)
        assert failure.kind == "refused" and failure.slot == 0
        assert report.per_peer_bytes[0] == 0.0


class TestRedistribution:
    def test_lost_share_rescaled_to_healthy_peers(self, rng, keys):
        plan = FaultPlan(seed=1, faults={0: PeerFault("refuse")})
        data, sessions, decoder, digests = build(rng, 2, keys, plan)
        report = run(sessions, decoder, digests, rate=20.0)
        # Peer 1 absorbs peer 0's share: 40 kbps -> 5000 B/slot.
        assert report.per_peer_bytes[1] / report.slots == pytest.approx(5000.0)


class TestBitIdentical:
    def test_policy_none_matches_legacy_report(self, rng, keys):
        seed_state = rng.bit_generator.state
        data, sessions, decoder, digests = build(rng, 3, keys)
        legacy = ParallelDownloader(sessions, decoder, lambda i, t: 20.0).run(
            10_000, file_id=FILE_ID
        )
        rng.bit_generator.state = seed_state
        data2, sessions2, decoder2, digests2 = build(rng, 3, keys)
        robust = run(sessions2, decoder2, digests2, rate=20.0)
        assert robust.complete and legacy.complete
        assert robust.slots == legacy.slots
        assert robust.bytes_received == legacy.bytes_received
        assert robust.per_peer_bytes == legacy.per_peer_bytes
        assert robust.messages_delivered == legacy.messages_delivered
        assert robust.failures == ()

    def test_empty_plan_wrap_is_identity(self, rng, keys):
        data, sessions, decoder, digests = build(rng, 2, keys, FaultPlan(seed=0))
        assert all(isinstance(s, ServingSession) for s in sessions)


class TestLatencyPath:
    def test_faults_survived_under_latency(self, rng, keys):
        plan = FaultPlan(
            seed=1,
            faults={
                0: PeerFault("pollute"),
                1: PeerFault("crash", at_byte=500),
            },
        )
        data, sessions, decoder, digests = build(rng, 4, keys, plan)
        latency = LatencyModel([2.0] * len(sessions))
        policy = RobustPolicy(digest_store=digests)
        dl = ParallelDownloader(
            sessions, decoder, lambda i, t: 20.0, latency=latency, policy=policy
        )
        report = dl.run(10_000, file_id=FILE_ID)
        assert report.complete
        assert decoder.result(len(data)) == data
        assert report.failure_of(0).kind == "polluted"
        assert report.failure_of(1).kind == "crashed"
        assert decoder.rejected == 0


class TestPolicyValidation:
    @pytest.mark.parametrize("kw", [{"stall_timeout_slots": 0}])
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ValueError):
            RobustPolicy(**kw)


class TestReportTaxonomy:
    def test_to_dict_includes_failures(self, rng, keys):
        plan = FaultPlan(seed=1, faults={0: PeerFault("pollute")})
        data, sessions, decoder, digests = build(rng, 2, keys, plan)
        report = run(sessions, decoder, digests)
        blob = report.to_dict()
        assert blob["complete"] is True
        assert blob["failures"][0]["peer"] == 0
        assert blob["failures"][0]["kind"] == "polluted"
        assert blob["bytes_discarded"] == report.bytes_discarded
        assert report.failed_peers == (0,)

    def test_seconds_scales_with_slot_seconds(self, rng, keys):
        data, sessions, decoder, digests = build(rng, 1, keys)
        dl = ParallelDownloader(
            sessions, decoder, lambda i, t: 10.0, slot_seconds=2.0
        )
        report = dl.run(10_000, file_id=FILE_ID)
        assert report.complete
        assert report.seconds == report.slots * 2.0
        assert report.to_dict()["seconds"] == report.seconds


class TestHandshakeRetry:
    def test_retry_backoff_accounting(self, rng, keys):
        plan = FaultPlan(seed=1, faults={0: PeerFault("refuse")})
        data, sessions, decoder, digests = build(rng, 1, keys, plan)
        accept, attempts, waited = DownloadSession(keys).handshake_with_retry(
            sessions[0], FILE_ID, attempts=3, backoff_slots=2
        )
        assert accept is None
        assert attempts == 3
        assert waited == 2 + 4 + 6  # linear backoff: 2*1 + 2*2 + 2*3

    def test_succeeds_first_try_on_honest_peer(self, rng, keys):
        data, sessions, decoder, digests = build(rng, 1, keys)
        accept, attempts, waited = DownloadSession(keys).handshake_with_retry(
            sessions[0], FILE_ID
        )
        assert accept is not None and attempts == 1 and waited == 0

    @pytest.mark.parametrize("kw", [{"attempts": 0}, {"backoff_slots": -1}])
    def test_bad_retry_knobs_rejected(self, keys, kw):
        # The retry bound and backoff are handshake_with_retry's own
        # arguments; it checks them before touching the session.
        with pytest.raises(ValueError):
            DownloadSession(keys).handshake_with_retry(None, FILE_ID, **kw)
