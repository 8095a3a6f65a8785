"""Unit tests for the parallel download scheduler."""

import numpy as np
import pytest

from repro.faults import FaultPlan, PeerFault
from repro.obs import TRACER, observability
from repro.rlnc import CodingParams, FileEncoder, ProgressiveDecoder
from repro.security import DigestStore, generate_keypair
from repro.storage import MessageStore
from repro.transfer import (
    DownloadSession,
    ParallelDownloader,
    ServingSession,
    SessionCrashed,
    kbps_to_bytes,
)

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8
FILE_ID = 0x33


class TestKbpsToBytes:
    def test_conversion(self):
        assert kbps_to_bytes(8.0, 1.0) == 1000.0
        assert kbps_to_bytes(256.0, 2.0) == 64_000.0


@pytest.fixture(scope="module")
def keys():
    return generate_keypair(bits=512, seed=3)


def build(rng, n_peers, keys, tamper_peer=None, limit=None):
    data = rng.bytes(500)
    store = DigestStore()
    encoder = FileEncoder(PARAMS, b"s", file_id=FILE_ID)
    encoded = encoder.encode_bundles(data, n_peers=n_peers, digest_store=store)
    sessions = []
    for p in range(n_peers):
        mstore = MessageStore()
        bundle = encoded.bundles[p]
        if tamper_peer == p:
            import numpy as np

            bundle = tuple(
                m.with_payload(np.asarray(m.payload) ^ 0xBEEF) for m in bundle
            )
        mstore.add_messages(bundle, limit=limit)
        serving = ServingSession(mstore, keys.public)
        DownloadSession(keys).handshake(serving, FILE_ID)
        sessions.append(serving)
    decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, store)
    return data, sessions, decoder


class TestDownload:
    def test_single_peer_completes(self, rng, keys):
        data, sessions, decoder = build(rng, 1, keys)
        dl = ParallelDownloader(sessions, decoder, lambda i, t: 256.0)
        report = dl.run(10_000, file_id=FILE_ID)
        assert report.complete
        assert decoder.result(len(data)) == data
        assert report.messages_delivered == PARAMS.k

    def test_parallel_faster_than_serial(self, rng, keys):
        # 1 kbps -> 125 B/slot; the file is ~640 wire bytes, so the
        # single-peer download needs several slots.
        data1, s1, d1 = build(rng, 1, keys)
        dl1 = ParallelDownloader(s1, d1, lambda i, t: 1.0)
        serial = dl1.run(10_000).slots
        assert serial > 2

        data4, s4, d4 = build(rng, 4, keys)
        dl4 = ParallelDownloader(s4, d4, lambda i, t: 1.0)
        parallel = dl4.run(10_000).slots
        assert parallel < serial

    def test_download_cap_scales_rates(self, rng, keys):
        data, sessions, decoder = build(rng, 4, keys)
        dl = ParallelDownloader(
            sessions, decoder, lambda i, t: 1000.0, download_cap_kbps=100.0
        )
        report = dl.run(10_000)
        assert report.complete
        # 4 x 1000 kbps offered but capped at 100 kbps aggregate.
        assert report.effective_rate_kbps() <= 100.0 * 1.05

    def test_stops_all_sessions_on_completion(self, rng, keys):
        data, sessions, decoder = build(rng, 4, keys)
        dl = ParallelDownloader(sessions, decoder, lambda i, t: 10_000.0)
        dl.run(10_000, file_id=FILE_ID)
        assert all(not s.active for s in sessions)

    def test_incomplete_when_budget_too_small(self, rng, keys):
        data, sessions, decoder = build(rng, 1, keys)
        dl = ParallelDownloader(sessions, decoder, lambda i, t: 1.0)
        report = dl.run(5)  # way too few slots at 1 kbps
        assert not report.complete
        assert report.slots == 5

    def test_tampering_peer_messages_rejected(self, rng, keys):
        data, sessions, decoder = build(rng, 2, keys, tamper_peer=0)
        dl = ParallelDownloader(sessions, decoder, lambda i, t: 500.0)
        report = dl.run(10_000, file_id=FILE_ID)
        assert report.complete  # honest peer 1 suffices
        assert report.messages_rejected >= 1
        assert decoder.result(len(data)) == data

    def test_per_peer_bytes_tracked(self, rng, keys):
        data, sessions, decoder = build(rng, 2, keys)
        rates = {0: 300.0, 1: 100.0}
        dl = ParallelDownloader(sessions, decoder, lambda i, t: rates[i])
        report = dl.run(10_000)
        assert report.per_peer_bytes[0] > report.per_peer_bytes[1]

    def test_dead_rate_peer_ignored(self, rng, keys):
        data, sessions, decoder = build(rng, 2, keys)
        dl = ParallelDownloader(
            sessions, decoder, lambda i, t: 0.0 if i == 0 else 200.0
        )
        report = dl.run(10_000)
        assert report.complete
        assert report.per_peer_bytes[0] == 0.0

    def test_validation(self, rng, keys):
        data, sessions, decoder = build(rng, 1, keys)
        with pytest.raises(ValueError):
            ParallelDownloader([], decoder, lambda i, t: 1.0)
        with pytest.raises(ValueError):
            ParallelDownloader(sessions, decoder, lambda i, t: 1.0, slot_seconds=0)


class TestReport:
    def test_effective_rate(self, rng, keys):
        data, sessions, decoder = build(rng, 1, keys)
        dl = ParallelDownloader(sessions, decoder, lambda i, t: 64.0)
        report = dl.run(10_000)
        assert report.effective_rate_kbps() <= 64.0 * 1.01
        assert report.seconds == report.slots

    def test_seconds_honours_slot_length(self, rng, keys):
        # Regression: `seconds` used to assume 1-second slots regardless
        # of the downloader's actual slot_seconds.
        data, sessions, decoder = build(rng, 1, keys)
        dl = ParallelDownloader(
            sessions, decoder, lambda i, t: 64.0, slot_seconds=0.5
        )
        report = dl.run(10_000)
        assert report.slot_seconds == 0.5
        assert report.seconds == report.slots * 0.5
        # effective_rate_kbps defaults to the report's own slot length.
        assert report.effective_rate_kbps() == report.effective_rate_kbps(0.5)


class TestStep:
    """``run`` is ``begin`` / ``step`` per slot / ``finish``; callers that
    hold the slot's rates already may drive the three themselves."""

    @pytest.mark.parametrize("cap", [float("inf"), 1.0])
    def test_hand_driven_steps_equal_run(self, keys, cap):
        def rate_fn(i, t):
            return 0.5 * (i + 1) + 0.25 * (t % 3)

        _, sessions, decoder = build(np.random.default_rng(3), 3, keys)
        ran = ParallelDownloader(
            sessions, decoder, rate_fn, download_cap_kbps=cap
        ).run(10_000, file_id=FILE_ID)

        _, sessions, decoder = build(np.random.default_rng(3), 3, keys)
        stepped = ParallelDownloader(sessions, decoder, None, download_cap_kbps=cap)
        stepped.begin(FILE_ID)
        t = 0
        # numpy rates, as the allocation engine hands them out
        while stepped.step(t, rates=np.array([rate_fn(i, t) for i in range(3)])):
            t += 1
        report = stepped.finish()
        assert report.complete
        assert report.to_dict() == ran.to_dict()
        assert all(type(b) is float for b in report.per_peer_bytes)
        # Nothing is left to do: further steps are refused, not run.
        assert stepped.step(t + 1, rates=[1.0] * 3) is False
        assert stepped.finish().slots == report.slots

    def test_complete_decoder_takes_no_slot(self, rng, keys):
        data, sessions, decoder = build(rng, 1, keys)
        ParallelDownloader(sessions, decoder, lambda i, t: 256.0).run(100, FILE_ID)
        data2, sessions2, _ = build(rng, 1, keys)
        calls = []
        again = ParallelDownloader(
            sessions2, decoder, lambda i, t: calls.append(t) or 256.0
        ).run(100, FILE_ID)
        assert again.complete and again.slots == 0 and not calls


class TestPeerSpans:
    def test_crash_without_policy_closes_every_span(self, rng, keys):
        data, sessions, decoder = build(rng, 3, keys)
        sessions = FaultPlan(seed=1, faults={1: PeerFault("crash", at_byte=0)}).wrap(
            sessions
        )
        with observability(tracing=True, reset=True):
            with pytest.raises(SessionCrashed):
                ParallelDownloader(sessions, decoder, lambda i, t: 20.0).run(
                    100, file_id=FILE_ID
                )
            events = TRACER.events()
        started = {
            e.fields["span_id"]: e.fields["op"] for e in events if e.name == "span.start"
        }
        ended = {
            e.fields["span_id"]: e.fields["status"] for e in events if e.name == "span.end"
        }
        assert sorted(started.values()).count("transfer.peer") == 3
        assert set(started) == set(ended)
        assert all(
            ended[span_id] == "error"
            for span_id, op in started.items()
            if op in ("transfer.peer", "transfer.download")
        )
