"""Unit tests for the fault-injecting serving-session wrapper."""

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultyServingSession, PeerFault
from repro.rlnc import CodingParams, FileEncoder
from repro.security import DigestStore, generate_keypair
from repro.storage import MessageStore
from repro.transfer import DownloadSession, ProtocolError, ServingSession, SessionCrashed

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8
FILE_ID = 0x77


@pytest.fixture(scope="module")
def keys():
    return generate_keypair(bits=512, seed=5)


@pytest.fixture()
def setup(rng, keys):
    """One honest serving peer plus the digest store guarding its file."""
    data = rng.bytes(500)
    digests = DigestStore()
    encoder = FileEncoder(PARAMS, b"s", file_id=FILE_ID)
    encoded = encoder.encode_bundles(data, n_peers=1, digest_store=digests)
    store = MessageStore()
    store.add_messages(encoded.bundles[0])
    return data, store, digests


def wrapped(store, keys, faults, seed=0, handshake=True):
    plan = FaultPlan(seed=seed, faults={0: faults})
    session = FaultyServingSession(
        ServingSession(store, keys.public), plan.faults_for(0), plan.rng_for(0), peer=0
    )
    if handshake:
        DownloadSession(keys).handshake(session, FILE_ID)
    return session


class TestRefuse:
    def test_auth_never_succeeds(self, setup, keys):
        _, store, _ = setup
        session = wrapped(store, keys, PeerFault("refuse"), handshake=False)
        with pytest.raises(ProtocolError):
            DownloadSession(keys).handshake(session, FILE_ID)
        assert not session.authenticated


class TestCrash:
    def test_crash_at_byte_raises_with_prior_messages(self, setup, keys):
        _, store, digests = setup
        wire = store.messages(FILE_ID)[0].wire_size()
        session = wrapped(store, keys, PeerFault("crash", at_byte=wire * 2.5))
        delivered = session.serve(wire * 2)  # below the threshold
        assert len(delivered) == 2
        with pytest.raises(SessionCrashed) as exc_info:
            session.serve(wire * 2)
        # The budget crossing the crash byte still yields the messages
        # completed before the cut (here: half a message -> none extra).
        assert isinstance(exc_info.value.delivered, tuple)
        assert not session.active

    def test_crashed_session_stays_dead(self, setup, keys):
        _, store, _ = setup
        session = wrapped(store, keys, PeerFault("crash", at_byte=0))
        with pytest.raises(SessionCrashed):
            session.serve(1000)
        with pytest.raises(SessionCrashed):
            session.serve(1000)


class TestStall:
    def test_stall_window_serves_nothing(self, setup, keys):
        _, store, _ = setup
        wire = store.messages(FILE_ID)[0].wire_size()
        session = wrapped(store, keys, PeerFault("stall", at_slot=1, duration=2))
        assert len(session.serve(wire)) == 1  # slot 0: healthy
        assert session.serve(wire) == []  # slot 1: stalled
        assert session.serve(wire) == []  # slot 2: stalled
        assert len(session.serve(wire)) == 1  # slot 3: recovered

    def test_stalled_budget_buys_no_stream_progress(self, setup, keys):
        _, store, _ = setup
        wire = store.messages(FILE_ID)[0].wire_size()
        session = wrapped(store, keys, PeerFault("stall", at_slot=0, duration=1))
        session.serve(wire * 100)  # stalled: nothing flows, no carryover
        assert session.messages_sent == 0
        assert len(session.serve(wire)) == 1


class TestPollution:
    def test_polluted_messages_fail_digest_verification(self, setup, keys):
        _, store, digests = setup
        session = wrapped(store, keys, PeerFault("pollute"))
        delivered = session.serve(10_000_000)
        assert delivered
        for data in delivered:
            m = data.message
            assert not digests.verify(m.file_id, m.message_id, m.payload_bytes())

    def test_pollution_keeps_valid_header(self, setup, keys):
        _, store, _ = setup
        originals = {m.message_id: m for m in store.messages(FILE_ID)}
        session = wrapped(store, keys, PeerFault("pollute"))
        for data in session.serve(10_000_000):
            m = data.message
            assert m.file_id == FILE_ID
            assert m.message_id in originals
            assert m.m == PARAMS.m and m.p == PARAMS.p
            assert int(np.asarray(m.payload).max()) < (1 << PARAMS.p)

    def test_corruption_alters_exactly_one_symbol(self, setup, keys):
        _, store, digests = setup
        originals = {m.message_id: np.asarray(m.payload) for m in store.messages(FILE_ID)}
        session = wrapped(store, keys, PeerFault("corrupt"))
        for data in session.serve(10_000_000):
            diff = np.asarray(data.message.payload) != originals[data.message.message_id]
            assert int(diff.sum()) == 1

    @pytest.mark.parametrize("kind", ["pollute", "corrupt"])
    @pytest.mark.parametrize("p", [4, 8, 16, 32])
    def test_tampered_payloads_are_in_range_and_still_construct(self, p, kind, rng, keys):
        # EncodedMessage refuses a symbol >= 2^p; the injector's draws never
        # are one, at any width, so tampering always yields a message that
        # packs to what its ``payload`` says.
        params = CodingParams(p=p, m=32, file_bytes=8 * 32 * p // 8)
        encoded = FileEncoder(params, b"s", file_id=FILE_ID).encode_bundles(rng.bytes(64), 1)
        store = MessageStore()
        store.add_messages(encoded.bundles[0])
        originals = {m.message_id: m for m in store.messages(FILE_ID)}
        for seed in range(4):
            session = wrapped(store, keys, PeerFault(kind), seed=seed)
            delivered = session.serve(10_000_000)
            assert len(delivered) == params.k
            for data in delivered:
                m = data.message
                assert m != originals[m.message_id] and m.m == params.m
                assert int(m.payload.max()) < (1 << p)
                assert type(m).from_bytes(m.to_bytes(), p) == m

    def test_partial_rate_pollutes_some(self, setup, keys):
        _, store, digests = setup
        session = wrapped(store, keys, PeerFault("pollute", rate=0.5), seed=11)
        delivered = session.serve(10_000_000)
        bad = sum(
            not digests.verify(
                d.message.file_id, d.message.message_id, d.message.payload_bytes()
            )
            for d in delivered
        )
        assert 0 < bad < len(delivered)

    def test_injection_is_bit_stable(self, setup, keys):
        _, store, _ = setup

        def payloads():
            session = wrapped(store, keys, PeerFault("pollute"), seed=42)
            return [np.asarray(d.message.payload).copy() for d in session.serve(10_000_000)]

        for a, b in zip(payloads(), payloads()):
            np.testing.assert_array_equal(a, b)


class TestDelegation:
    def test_healthy_passthrough_counters(self, setup, keys):
        _, store, _ = setup
        session = wrapped(store, keys, PeerFault("stall", at_slot=999))
        inner = ServingSession(store, keys.public)
        DownloadSession(keys).handshake(inner, FILE_ID)
        wire = store.messages(FILE_ID)[0].wire_size()
        a = session.serve(wire * 3)
        b = inner.serve(wire * 3)
        assert [d.message.message_id for d in a] == [d.message.message_id for d in b]
        assert session.bytes_sent == inner.bytes_sent
        assert session.messages_sent == inner.messages_sent


class TestChurnKinds:
    def test_depart_kills_the_session_for_good(self, setup, keys):
        _, store, _ = setup
        session = wrapped(store, keys, PeerFault("depart", at_slot=2))
        wire = store.messages(FILE_ID)[0].wire_size()
        assert session.serve(wire)  # slot 0: still present
        assert session.serve(wire)  # slot 1
        with pytest.raises(SessionCrashed, match="departed at slot 2"):
            session.serve(wire)
        assert not session.active
        with pytest.raises(SessionCrashed):
            session.serve(wire)  # stays dead

    def test_rejoin_serves_nothing_until_arrival(self, setup, keys):
        _, store, _ = setup
        session = wrapped(store, keys, PeerFault("rejoin", at_slot=3))
        wire = store.messages(FILE_ID)[0].wire_size()
        for _ in range(3):
            assert session.serve(wire) == []  # absent, but survivable
        assert session.active
        delivered = session.serve(wire)
        assert len(delivered) == 1  # back with stored messages intact

    def test_churn_window_is_a_survivable_outage(self, setup, keys):
        _, store, _ = setup
        session = wrapped(store, keys, PeerFault("churn", at_slot=1, duration=2))
        wire = store.messages(FILE_ID)[0].wire_size()
        first = session.serve(wire)
        assert len(first) == 1  # slot 0: before the window
        assert session.serve(wire) == []  # slots 1-2: gone
        assert session.serve(wire) == []
        assert session.active
        back = session.serve(wire)
        assert len(back) == 1
        # The cursor did not advance during the outage: delivery resumes
        # exactly where it left off.
        assert back[0].message.message_id == first[0].message.message_id + 1
