"""Unit tests for per-peer message storage and File-id.dat persistence."""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rlnc import CodingParams, FileEncoder
from repro.rlnc.message import EncodedMessage
from repro.storage import MessageStore, ServingCursor, StorageError
from repro.storage import store as store_module

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8


@pytest.fixture
def messages(rng):
    encoder = FileEncoder(PARAMS, b"s", file_id=0x11)
    encoded = encoder.encode_bundles(rng.bytes(500), n_peers=2)
    return encoded.all_messages()


@pytest.fixture(scope="module")
def fuzz_dat(tmp_path_factory):
    """One path the fuzz test rewrites per example."""
    return tmp_path_factory.mktemp("fuzz") / "fuzz.dat"


class TestAddAndQuery:
    def test_add_and_count(self, messages):
        store = MessageStore()
        assert store.add_messages(messages) == len(messages)
        assert store.count(0x11) == len(messages)
        assert store.files() == [0x11]
        assert store.has_file(0x11)

    def test_limit_per_call(self, messages):
        store = MessageStore()
        kept = store.add_messages(messages, limit=3)
        assert kept == 3
        assert store.count(0x11) == 3

    def test_messages_copy(self, messages):
        store = MessageStore()
        store.add_messages(messages[:2])
        listed = store.messages(0x11)
        listed.append("sentinel")
        assert store.count(0x11) == 2

    def test_unknown_file_raises(self):
        store = MessageStore()
        with pytest.raises(StorageError):
            store.messages(0x99)
        with pytest.raises(StorageError):
            store.open_cursor(0x99)

    def test_total_bytes(self, messages):
        store = MessageStore()
        store.add_messages(messages[:4])
        assert store.total_bytes() == sum(m.wire_size() for m in messages[:4])

    def test_drop_file(self, messages):
        store = MessageStore()
        store.add_messages(messages)
        store.drop_file(0x11)
        assert not store.has_file(0x11)
        assert store.count(0x11) == 0


class TestServingCursor:
    def test_serial_order(self, messages):
        store = MessageStore()
        store.add_messages(messages[:5])
        cursor = store.open_cursor(0x11)
        served, _ = cursor.take(float("inf"))
        assert [m.message_id for m in served] == [m.message_id for m in messages[:5]]

    def test_exhaustion(self, messages):
        store = MessageStore()
        store.add_messages(messages[:2])
        cursor = store.open_cursor(0x11)
        assert len(cursor.take(float("inf"))[0]) == 2
        assert cursor.exhausted
        assert cursor.take(float("inf")) == ([], float("inf"))

    def test_remaining_counts_down(self, messages):
        store = MessageStore()
        store.add_messages(messages[:3])
        cursor = store.open_cursor(0x11)
        assert cursor.remaining == 3
        cursor.take(messages[0].wire_size())
        assert cursor.remaining == 2

    def test_independent_cursors(self, messages):
        store = MessageStore()
        store.add_messages(messages[:3])
        a = store.open_cursor(0x11)
        b = store.open_cursor(0x11)
        a.take(messages[0].wire_size())
        assert b.remaining == 3

    def test_take_is_the_peek_advance_loop(self, messages):
        # The reference is the stored list itself: the longest prefix
        # whose wire sizes the budget covers, and the budget left over.
        store = MessageStore()
        store.add_messages(messages)
        stored = store.messages(0x11)
        size = messages[0].wire_size()
        for budget in (0, size - 1, size, 2.5 * size, float("inf")):
            expected, remaining = [], budget
            for msg in stored:
                if remaining < msg.wire_size():
                    break
                remaining -= msg.wire_size()
                expected.append(msg)
            cursor = store.open_cursor(0x11)
            assert cursor.take(budget) == (expected, remaining)
            assert cursor.remaining == len(stored) - len(expected)
        cursor = store.open_cursor(0x11)
        store.drop_file(0x11)
        assert cursor.take(float("inf")) == ([], float("inf"))  # stale: nothing


class TestDatPersistence:
    def test_save_load_roundtrip(self, messages, tmp_path):
        store = MessageStore()
        store.add_messages(messages)
        paths = store.save_dat(str(tmp_path))
        assert len(paths) == 1
        assert paths[0].endswith("0000000000000011.dat")

        loaded = MessageStore()
        count = loaded.load_dat(paths[0], p=PARAMS.p, m=PARAMS.m)
        assert count == len(messages)
        original = store.messages(0x11)
        restored = loaded.messages(0x11)
        for a, b in zip(original, restored):
            assert a.message_id == b.message_id
            assert np.array_equal(a.payload, b.payload)

    def test_loaded_messages_are_slices_of_one_read(self, messages, tmp_path):
        store = MessageStore()
        store.add_messages(messages)
        (path,) = store.save_dat(str(tmp_path))
        loaded = MessageStore()
        loaded.load_dat(path, p=PARAMS.p, m=PARAMS.m)
        restored = loaded.messages(0x11)
        blobs = {id(msg.payload_bytes().obj) for msg in restored}
        assert len(blobs) == 1 and isinstance(restored[0].payload_bytes().obj, bytes)
        assert restored == store.messages(0x11)
        # saving again writes the same file without unpacking a record
        (again,) = loaded.save_dat(str(tmp_path / "again"))
        assert Path(again).read_bytes() == Path(path).read_bytes()
        assert all(msg._symbols is None for msg in restored)

    @pytest.mark.parametrize("m", [32, 33])
    @pytest.mark.parametrize("p", [4, 8, 16, 32])
    def test_roundtrip_for_every_width_and_parity(self, p, m, rng, tmp_path):
        """``load_dat`` returns exactly ``m`` symbols per message, also
        where a record ends on half a byte (p = 4, odd m), and the loaded
        messages decode."""
        from repro.rlnc import BlockDecoder

        params = CodingParams(p=p, m=m, file_bytes=4 * ((m * p + 7) // 8))
        encoder = FileEncoder(params, b"s", file_id=0x22)
        data = rng.bytes(params.file_bytes)
        store = MessageStore()
        store.add_messages(encoder.encode_bundles(data, n_peers=1).all_messages())
        (path,) = store.save_dat(str(tmp_path))
        loaded = MessageStore()
        assert loaded.load_dat(path, p=p, m=m) == params.k
        restored = loaded.messages(0x22)
        for a, b in zip(store.messages(0x22), restored):
            assert (a.message_id, b.m) == (b.message_id, m)
            assert a.to_bytes() == b.to_bytes()
            assert np.array_equal(a.payload, b.payload)
        assert BlockDecoder(params, encoder.coefficients).decode(restored) == data

    def test_nonzero_pad_nibble_rejected(self, rng, tmp_path):
        params = CodingParams(p=4, m=33, file_bytes=4 * 17)
        encoder = FileEncoder(params, b"s", file_id=0x22)
        store = MessageStore()
        store.add_messages(encoder.encode_bundles(rng.bytes(60), 1).all_messages())
        (path,) = store.save_dat(str(tmp_path))
        blob = bytearray(Path(path).read_bytes())
        blob[-1] |= 0x01  # low nibble of a record's last byte: the padding
        Path(path).write_bytes(blob)
        with pytest.raises(StorageError, match="non-zero padding"):
            MessageStore().load_dat(path, p=4, m=33)

    def test_corrupt_dat_rejected(self, messages, tmp_path):
        store = MessageStore()
        store.add_messages(messages[:2])
        path = store.save_dat(str(tmp_path))[0]
        with open(path, "ab") as fh:
            fh.write(b"\x00")  # break record alignment
        with pytest.raises(StorageError):
            MessageStore().load_dat(path, p=PARAMS.p, m=PARAMS.m)

    @pytest.mark.parametrize(
        "p, m",
        [
            (8, -16),  # record size 0: was a ZeroDivisionError
            (8, -24),  # record size -8: loaded "0 messages" from any file
            (0, 4),  # was a bare ValueError out of bytes_to_symbols
            (12, 4),
            (8, 0),
        ],
    )
    def test_hostile_manifest_shape_rejected(self, p, m, tmp_path):
        path = tmp_path / "x.dat"
        path.write_bytes(bytes(64))
        store = MessageStore()
        with pytest.raises(StorageError, match="unsupported record shape"):
            store.load_dat(str(path), p=p, m=m)
        assert store.files() == []

    def test_shape_is_checked_before_the_file_is_read(self, tmp_path):
        with pytest.raises(StorageError, match="unsupported record shape"):
            MessageStore().load_dat(str(tmp_path / "absent.dat"), p=8, m=-16)

    @given(
        blob=st.binary(max_size=200),
        p=st.sampled_from([4, 8, 16, 32, 0, -8, 3, 12, 64]),
        m=st.one_of(st.integers(-40, 40), st.sampled_from([-(1 << 62), 1 << 62])),
    )
    def test_arbitrary_bytes_load_whole_or_raise_storage_error(
        self, blob, p, m, fuzz_dat
    ):
        """Any file under any manifest ``(p, m)`` loads as whole records of
        exactly ``m`` symbols or raises ``StorageError`` — no other
        exception, and nothing sized by anything but the file's length."""
        fuzz_dat.write_bytes(blob)
        store = MessageStore()
        try:
            count = store.load_dat(str(fuzz_dat), p=p, m=m)
        except StorageError:
            return
        loaded = [msg for fid in store.files() for msg in store.messages(fid)]
        assert len(loaded) == count
        assert all(msg.m == m and msg.p == p for msg in loaded)
        assert store.total_bytes() == len(blob)

    def test_multiple_files_saved_separately(self, rng, tmp_path):
        store = MessageStore()
        for fid in (1, 2):
            enc = FileEncoder(PARAMS, b"s", file_id=fid)
            store.add_messages(enc.encode_bundles(rng.bytes(100), 1).all_messages())
        assert len(store.save_dat(str(tmp_path))) == 2


class TestDatWrites:
    """``save_dat`` writes each file with ``os.writev``: the bytes are the
    records' wire bytes whatever the calls look like."""

    @staticmethod
    def spy(monkeypatch, limit=None):
        """Record the buffers of every ``writev``; with ``limit``, write
        at most that many bytes per call, as a short write does."""
        calls = []
        real = os.writev

        def writev(fd, buffers):
            buffers = [bytes(buf) for buf in buffers]
            calls.append(buffers)
            if limit is None:
                return real(fd, buffers)
            return os.write(fd, b"".join(buffers)[:limit])

        monkeypatch.setattr(os, "writev", writev)
        return calls

    @staticmethod
    def saved(store, tmp_path):
        (path,) = store.save_dat(str(tmp_path))
        return Path(path).read_bytes()

    def test_short_write_resumes_mid_buffer(self, messages, monkeypatch, tmp_path):
        store = MessageStore()
        store.add_messages(messages)
        record = messages[0].wire_size()
        calls = self.spy(monkeypatch, limit=record + 21)  # ends inside a payload
        assert self.saved(store, tmp_path) == b"".join(m.to_bytes() for m in messages)
        assert len(calls) == -(-len(messages) * record // (record + 21))
        assert len(calls[1][0]) == record - 21  # the rest of the cut payload

    def test_more_records_than_one_writev_takes(self, monkeypatch, rng, tmp_path):
        count = store_module._IOV_MAX // 2 + 3
        msgs = [
            EncodedMessage(7, i, rng.integers(0, 1 << 16, PARAMS.m, dtype=np.uint32), 16)
            for i in range(count)
        ]
        store = MessageStore()
        store.add_messages(msgs)
        calls = self.spy(monkeypatch)
        assert self.saved(store, tmp_path) == b"".join(m.to_bytes() for m in msgs)
        assert [len(c) for c in calls] == [store_module._IOV_MAX, 2 * count - store_module._IOV_MAX]

    def test_empty_store_writes_nothing(self, monkeypatch, tmp_path):
        calls = self.spy(monkeypatch)
        assert MessageStore().save_dat(str(tmp_path / "peer")) == []
        assert (tmp_path / "peer").is_dir() and not any((tmp_path / "peer").iterdir())
        assert calls == []


class TestCursorStaleness:
    def test_drop_file_invalidates_open_cursor(self, messages):
        # Regression: dropping a file used to leave open cursors serving
        # from the orphaned message list as if nothing happened.
        store = MessageStore()
        store.add_messages(messages)
        cursor = store.open_cursor(0x11)
        cursor.take(messages[0].wire_size())
        store.drop_file(0x11)
        assert cursor.stale
        assert cursor.remaining == 0
        assert cursor.exhausted  # ServingSession.active degrades cleanly
        assert cursor.take(float("inf")) == ([], float("inf"))

    def test_republished_file_does_not_revive_old_cursor(self, messages):
        store = MessageStore()
        store.add_messages(messages)
        cursor = store.open_cursor(0x11)
        store.drop_file(0x11)
        store.add_messages(messages)  # fresh backing list, same file id
        assert cursor.stale
        assert cursor.take(float("inf")) == ([], float("inf"))
        assert not store.open_cursor(0x11).stale

    def test_dropping_other_file_leaves_cursor_live(self, rng, messages):
        other = FileEncoder(PARAMS, b"s", file_id=0x22)
        store = MessageStore()
        store.add_messages(messages)
        store.add_messages(other.encode_bundles(rng.bytes(64), n_peers=1).all_messages())
        cursor = store.open_cursor(0x11)
        store.drop_file(0x22)
        assert not cursor.stale
        assert cursor.remaining == len(messages)

    def test_detached_cursor_never_goes_stale(self, messages):
        cursor = ServingCursor(messages)
        assert not cursor.stale
        assert cursor.take(messages[0].wire_size())[0] == [messages[0]]
