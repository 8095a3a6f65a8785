"""Tests for concurrent multi-user downloads over one allocation timeline."""

import pytest

from repro.obs import TRACER, analyze, observability
from repro.rlnc import CodingParams
from repro.sim import FileSharingNetwork

PARAMS = CodingParams(p=16, m=64, file_bytes=1024)


@pytest.fixture
def net():
    return FileSharingNetwork([400.0, 400.0, 400.0, 400.0], params=PARAMS, seed=8)


@pytest.fixture
def blobs(rng):
    return {i: rng.bytes(6 * 1024) for i in range(3)}


class TestConcurrent:
    def test_two_users_both_complete(self, net, blobs):
        net.publish(owner=0, name="a", data=blobs[0])
        net.publish(owner=1, name="b", data=blobs[1])
        results = net.download_concurrently([(0, "a"), (1, "b")])
        assert results[0].complete and results[0].data == blobs[0]
        assert results[1].complete and results[1].data == blobs[1]

    def test_single_request_equals_plain_download_shape(self, net, blobs):
        net.publish(owner=0, name="a", data=blobs[0])
        (result,) = net.download_concurrently([(2, "a")])
        assert result.complete and result.data == blobs[0]
        assert len(result.reports) == 6  # one per chunk

    def test_contention_slows_both(self, rng, blobs):
        def fresh():
            net = FileSharingNetwork([400.0] * 4, params=PARAMS, seed=8)
            net.publish(owner=0, name="a", data=blobs[0])
            net.publish(owner=1, name="b", data=blobs[1])
            return net

        solo = fresh().download_concurrently([(0, "a")])[0]
        pair = fresh().download_concurrently([(0, "a"), (1, "b")])
        assert pair[0].slots >= solo.slots
        assert pair[0].complete and pair[1].complete

    def test_equal_peers_get_equal_service(self, net, blobs):
        """Two identical users downloading identical-size files must see
        (nearly) identical transfer times — pairwise fairness realised
        in actual transfers."""
        net.publish(owner=0, name="a", data=blobs[0])
        net.publish(owner=1, name="b", data=blobs[1])
        results = net.download_concurrently([(0, "a"), (1, "b")])
        assert abs(results[0].slots - results[1].slots) <= 2

    def test_three_way(self, net, blobs):
        for i in range(3):
            net.publish(owner=i, name=f"f{i}", data=blobs[i])
        results = net.download_concurrently([(i, f"f{i}") for i in range(3)])
        for i, result in enumerate(results):
            assert result.complete and result.data == blobs[i]

    def test_duplicate_user_rejected(self, net, blobs):
        net.publish(owner=0, name="a", data=blobs[0])
        with pytest.raises(ValueError):
            net.download_concurrently([(0, "a"), (0, "a")])

    def test_unknown_file_rejected(self, net):
        with pytest.raises(KeyError):
            net.download_concurrently([(0, "ghost")])

    def test_incomplete_when_slots_exhausted(self, net, blobs):
        net.publish(owner=0, name="a", data=blobs[0])
        (result,) = net.download_concurrently([(0, "a")], max_slots=1)
        assert not result.complete
        assert result.data == b""

    def test_download_cap_applies_per_user(self, net, blobs):
        net.publish(owner=0, name="a", data=blobs[0])
        fast = net.download_concurrently([(0, "a")])[0]
        net2 = FileSharingNetwork([400.0] * 4, params=PARAMS, seed=8)
        net2.publish(owner=0, name="a", data=blobs[0])
        # each ~1.2 kB chunk bundle needs ~9.2 kbps to finish in one
        # slot, so a 5 kbps cap forces multiple slots per chunk
        slow = net2.download_concurrently([(0, "a")], download_cap_kbps=5.0)[0]
        assert slow.complete
        assert slow.slots > fast.slots

    def test_sequential_state_clean_after_concurrent(self, net, blobs):
        net.publish(owner=0, name="a", data=blobs[0])
        net.download_concurrently([(0, "a"), (1, "a")])
        # A plain download afterwards still works.
        result = net.download(user=2, name="a")
        assert result.complete and result.data == blobs[0]


class TestOneDownloadLoop:
    """A concurrent download of one request *is* a plain download: both
    drive the same ``ParallelDownloader`` slot machine."""

    @staticmethod
    def fresh(blobs):
        net = FileSharingNetwork([400.0, 300.0, 200.0, 100.0], params=PARAMS, seed=8)
        net.publish(owner=0, name="a", data=blobs[0])
        return net

    @pytest.mark.parametrize("cap", [{}, {"download_cap_kbps": 5.0}], ids=["nocap", "cap"])
    def test_single_request_equals_plain_download(self, blobs, cap):
        plain = self.fresh(blobs).download(2, "a", **cap)
        (together,) = self.fresh(blobs).download_concurrently([(2, "a")], **cap)
        assert plain.complete and together.data == plain.data == blobs[0]
        assert together.slots == plain.slots
        assert together.bytes_received == plain.bytes_received
        assert [r.to_dict() for r in together.reports] == [
            r.to_dict() for r in plain.reports
        ]

    def test_peer_subset_and_repair_apply_to_every_transfer(self, blobs):
        """The shared loop honours ``peers`` (rates ``alloc[peers, user]``)
        and arms ``repair_threshold`` as a plain download always did:
        two peers hold 4 of a chunk's 8 messages, so both transfers stall
        unarmed and complete once survivors may recombine mid-flight."""

        def fresh():
            net = FileSharingNetwork([400.0] * 4, params=PARAMS, seed=8)
            net.publish(owner=0, name="a", data=blobs[0], message_limit=2)
            return net

        requests = [(2, "a"), (0, "a")]
        stalled = fresh().download_concurrently(requests, max_slots=40, peers=[1, 3])
        assert not any(r.complete for r in stalled)
        assert all(len(rep.per_peer_bytes) == 2 for r in stalled for rep in r.reports)
        repaired = fresh().download_concurrently(
            requests, max_slots=40, peers=[1, 3], repair_threshold=1.0
        )
        assert all(r.complete and r.data == blobs[0] for r in repaired)

    def test_unfinished_chunk_is_reported_incomplete(self, blobs):
        # Chunks take one slot each here: after two slots two are done and
        # the third has been opened but never stepped.
        (result,) = self.fresh(blobs).download_concurrently([(2, "a")], max_slots=2)
        assert [r.complete for r in result.reports] == [True, True, False]
        assert result.reports[-1].slots == 0
        assert not result.complete and result.slots == 2

    def test_emits_transfer_events_like_any_download(self, blobs):
        net = self.fresh(blobs)
        with observability(tracing=True, reset=True):
            net.download_concurrently([(2, "a")])
            names = [e.name for e in TRACER.events()]
            forest = analyze.build_span_forest(TRACER.events())
        assert names.count("transfer.start") == 6  # one per chunk
        assert names.count("transfer.complete") == 6
        assert names.count("transfer.stop") == 6 * net.n
        # ... and one closed transfer.download span per chunk, parenting
        # that chunk's peer spans, as ParallelDownloader.run gives one,
        # and the decoder's one digest batch at rank k.
        downloads = [r for r in forest if r.op == "transfer.download"]
        assert len(downloads) == 6
        for root in downloads:
            assert root.status == "ok" and root.attrs["peers"] == net.n
            assert [c.op for c in root.children] == ["transfer.peer"] * net.n + [
                "security.verify"
            ]

    def test_interleaved_transfers_keep_their_own_spans(self, blobs):
        net = self.fresh(blobs)
        net.publish(owner=1, name="b", data=blobs[1])
        with observability(tracing=True, reset=True):
            net.download_concurrently([(2, "a"), (3, "b")])
            forest = analyze.build_span_forest(TRACER.events())
        downloads = [r for r in forest if r.op == "transfer.download"]
        assert len(downloads) == 12
        assert sorted(r.attrs["file_id"] for r in downloads) == sorted(
            net.registry["a"].manifest.chunk_ids + net.registry["b"].manifest.chunk_ids
        )
        for root in downloads:
            assert [c.op for c in root.children] == ["transfer.peer"] * net.n + [
                "security.verify"
            ]
            assert all(node.end_ns is not None for node in root.walk())
