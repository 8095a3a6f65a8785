"""Tests for the latency-aware transfer path."""

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.repair import DownloadRepairTrigger
from repro.rlnc import CodingParams, FileEncoder, ProgressiveDecoder
from repro.security import DigestStore, generate_keypair
from repro.storage import MessageStore
from repro.transfer import (
    DownloadSession,
    LatencyModel,
    ParallelDownloader,
    RobustPolicy,
    ServingSession,
)

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8
FILE_ID = 0x44


@pytest.fixture(scope="module")
def keys():
    return generate_keypair(bits=512, seed=44)


def build(rng, n_peers, keys, plan=None, keep=None):
    """``plan`` wraps the sessions with fault injectors; ``keep`` truncates
    every peer's bundle to that many messages (scarce supply)."""
    data = rng.bytes(500)
    store = DigestStore()
    encoder = FileEncoder(PARAMS, b"s", file_id=FILE_ID)
    encoded = encoder.encode_bundles(data, n_peers=n_peers, digest_store=store)
    sessions = []
    for p in range(n_peers):
        mstore = MessageStore()
        mstore.add_messages(encoded.bundles[p][:keep])
        sessions.append(ServingSession(mstore, keys.public))
    if plan is not None:
        sessions = plan.wrap(sessions)
    for p, serving in enumerate(sessions):
        DownloadSession(keys).handshake_with_retry(serving, FILE_ID, peer=p)
    decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, store)
    return data, sessions, decoder


class TestLatencyModel:
    def test_slot_conversions(self):
        model = LatencyModel([0.0, 1.0, 2.5], slot_seconds=1.0)
        assert model.handshake_slots(0) == 0
        assert model.handshake_slots(1) == 2  # 2 RTTs
        assert model.handshake_slots(2) == 5
        assert model.delivery_slots(1) == 1  # ceil(0.5)
        assert model.stop_slots(2) == 2  # ceil(1.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel([])
        with pytest.raises(ValueError):
            LatencyModel([-1.0])
        with pytest.raises(ValueError):
            LatencyModel([1.0], slot_seconds=0)

    def test_session_count_checked(self, rng, keys):
        data, sessions, decoder = build(rng, 2, keys)
        with pytest.raises(ValueError):
            ParallelDownloader(
                sessions, decoder, lambda i, t: 1.0, latency=LatencyModel([1.0])
            )


class TestLatencyEffects:
    def test_zero_latency_matches_plain_run(self, keys):
        """``LatencyModel([0]*n)`` is ``latency=None``: RTT 0 costs 0 slots."""
        faults = "seed=9;0:pollute@0.5;1:corrupt@1;2:crash@200;3:stall@1+7;4:refuse"

        def run(n, robust, rate, latency):
            plan = FaultPlan.parse(faults) if robust else None
            _, sessions, decoder = build(np.random.default_rng(5), n, keys, plan)
            policy = RobustPolicy(digest_store=decoder.digest_store) if robust else None
            report = ParallelDownloader(
                sessions, decoder, lambda i, t: rate, latency=latency, policy=policy
            ).run(1000, FILE_ID)
            assert report.complete
            return report.to_dict()

        for n, robust in ((2, False), (6, True)):  # plain; robust + every fault kind
            for rate in (0.3, 100.0):
                plain = run(n, robust, rate, None)
                zero = run(n, robust, rate, LatencyModel([0.0] * n))
                assert plain.pop("first_data_slot") is None
                assert zero.pop("first_data_slot") == 0
                assert zero == plain
                assert zero["wasted_bytes"] == 0.0

    def test_zero_rtt_peer_stops_in_the_completion_slot(self, rng, keys):
        """Mixed RTTs: the near peer hears the stop at once, the far one lags."""
        data, sessions, decoder = build(rng, 2, keys)
        model = LatencyModel([0.0, 10.0])  # far peer: handshake 20, stop lag 5
        near_serves = []
        inner = sessions[0].serve
        sessions[0].serve = lambda budget: near_serves.append(budget) or inner(budget)
        report = ParallelDownloader(
            sessions, decoder, lambda i, t: 0.2, latency=model
        ).run(2000, FILE_ID)
        assert report.complete
        assert decoder.result(len(data)) == data
        # 25 B/slot.  The near peer's eighth message lands in the slot it
        # was served (slot 25), before anything from the far peer arrives.
        done = 25
        assert report.per_peer_bytes[0] == 25.0 * (done + 1)
        # Near peer: stopped in that very slot, never served again.
        assert len(near_serves) == done + 1
        # Far peer: mid-stream, keeps sending until its stop arrives.
        lag = model.stop_slots(1)
        assert report.wasted_bytes == 25.0 * (lag - 1) > 0
        assert report.slots == done + lag + 1
        assert not sessions[0].active and not sessions[1].active

    def test_handshake_delays_first_byte(self, rng, keys):
        data, sessions, decoder = build(rng, 2, keys)
        model = LatencyModel([3.0, 3.0])  # handshake = 6 slots
        report = ParallelDownloader(
            sessions, decoder, lambda i, t: 500.0, latency=model
        ).run(1000, FILE_ID)
        assert report.complete
        assert report.first_data_slot == 6

    def test_latency_extends_download(self, rng, keys):
        data, s1, d1 = build(rng, 2, keys)
        fast = ParallelDownloader(s1, d1, lambda i, t: 50.0).run(1000, FILE_ID)
        data2, s2, d2 = build(rng, 2, keys)
        slow = ParallelDownloader(
            s2, d2, lambda i, t: 50.0, latency=LatencyModel([2.0, 2.0])
        ).run(1000, FILE_ID)
        assert slow.complete
        assert slow.slots > fast.slots

    def test_stop_lag_wastes_bytes(self, rng, keys):
        # Slow rates keep all four peers mid-stream when decoding
        # completes, so the 2-slot stop lag produces measurable waste.
        data, sessions, decoder = build(rng, 4, keys)
        model = LatencyModel([4.0] * 4)
        rate = 0.5  # kbps -> 62.5 B/slot, ~1.3 slots per message
        report = ParallelDownloader(
            sessions, decoder, lambda i, t: rate, latency=model
        ).run(2000, FILE_ID)
        assert report.complete
        assert report.wasted_bytes > 0
        # and the waste is bounded by rate x stop-lag x peers
        bound = 4 * rate * 1000 / 8 * (model.stop_slots(0) + 1)
        assert report.wasted_bytes <= bound

    def test_heterogeneous_rtts(self, rng, keys):
        """A far peer joins late but still contributes."""
        data, sessions, decoder = build(rng, 2, keys)
        model = LatencyModel([0.0, 10.0])
        # 0.2 kbps -> 25 B/slot: peer 0 alone would need ~26 slots, so
        # peer 1 (handshake done at slot 20) still gets to contribute.
        report = ParallelDownloader(
            sessions, decoder, lambda i, t: 0.2, latency=model
        ).run(2000, FILE_ID)
        assert report.complete
        assert report.per_peer_bytes[0] > report.per_peer_bytes[1] > 0

    def test_incomplete_when_slots_exhausted(self, rng, keys):
        data, sessions, decoder = build(rng, 1, keys)
        model = LatencyModel([5.0])
        report = ParallelDownloader(
            sessions, decoder, lambda i, t: 1000.0, latency=model
        ).run(5, FILE_ID)  # handshake alone takes 10 slots
        assert not report.complete
        assert report.bytes_received == 0.0


class TestRepairUnderLatency:
    def test_repair_fires_and_completes(self, rng, keys):
        """The repair trigger is consulted on every path, latency included."""
        # Two peers with three messages each: supply 6 < k = 8.
        data, sessions, decoder = build(rng, 2, keys, keep=3)
        spare = FileEncoder(PARAMS, b"s", file_id=FILE_ID).encode_bundles(
            data, n_peers=3, digest_store=decoder.digest_store
        ).bundles[2]
        store = sessions[0]._store

        def hook(needed):
            store.add_messages(spare[:needed])
            return needed

        trigger = DownloadRepairTrigger(hook=hook)
        report = ParallelDownloader(
            sessions,
            decoder,
            lambda i, t: 20.0,
            latency=LatencyModel([1.0, 1.0]),
            repair=trigger,
        ).run(1000, FILE_ID)
        assert trigger.fires == 1
        assert report.complete
        assert decoder.result(len(data)) == data

    def test_in_flight_messages_count_as_supply(self, rng, keys):
        """Served-but-undelivered messages must not trip the trigger."""
        data, sessions, decoder = build(rng, 2, keys)
        trigger = DownloadRepairTrigger(hook=lambda needed: 0)
        # Everything is served in the first data slot, so both cursors are
        # exhausted while all sixteen messages are still in flight.
        report = ParallelDownloader(
            sessions,
            decoder,
            lambda i, t: 1e6,
            latency=LatencyModel([6.0, 6.0]),
            repair=trigger,
        ).run(1000, FILE_ID)
        assert report.complete
        assert trigger.fires == 0

