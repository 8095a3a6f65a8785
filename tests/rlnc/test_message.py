"""Unit tests for the encoded-message wire format (Fig. 3)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rlnc import HEADER_BYTES, EncodedMessage, MessageFormatError
from repro.rlnc.message import pack_rows


def make_message(p=16, m=8, file_id=0xCAFE, message_id=42, rng=None):
    rng = rng or np.random.default_rng(1)
    payload = rng.integers(0, 1 << p, size=m, dtype=np.uint64).astype(np.uint32)
    return EncodedMessage(file_id=file_id, message_id=message_id, payload=payload, p=p)


class TestConstruction:
    def test_basic_fields(self):
        msg = make_message()
        assert msg.file_id == 0xCAFE
        assert msg.message_id == 42
        assert msg.m == 8
        assert msg.p == 16

    def test_payload_is_read_only(self):
        msg = make_message()
        with pytest.raises(ValueError):
            np.asarray(msg.payload)[0] = 1

    def test_constructor_keeps_no_alias_of_the_callers_array(self):
        from repro.security import DigestStore

        a = np.arange(8, dtype=np.uint32)
        msg = EncodedMessage(1, 2, a, 8)
        assert a.flags.writeable  # the caller's array is the caller's
        before = (msg.payload.copy(), bytes(msg.payload_bytes()))
        digest = DigestStore().record(1, 2, msg.payload_bytes())
        a[:] = 255
        assert np.array_equal(msg.payload, before[0])
        assert bytes(msg.payload_bytes()) == before[1]
        assert DigestStore().record(1, 2, msg.payload_bytes()) == digest

    def test_payload_from_a_row_view_is_immutable_through_its_base(self):
        grid = np.arange(12, dtype=np.uint32).reshape(3, 4)
        msg = EncodedMessage(1, 2, grid[1], 8)
        grid[1] = 0
        assert msg.payload.tolist() == [4, 5, 6, 7]
        assert msg.payload.base is None or not msg.payload.base.flags.writeable
        assert bytes(msg.payload_bytes()) == bytes([4, 5, 6, 7])

    def test_attributes_cannot_be_set(self):
        msg = make_message()
        with pytest.raises(AttributeError):
            msg.message_id = 7
        with pytest.raises(AttributeError):
            del msg.p
        with pytest.raises(TypeError):
            msg.payload_bytes()[0] = 1  # a read-only buffer

    def test_payload_is_unpacked_once(self):
        msg = make_message()
        assert msg.payload is msg.payload

    @pytest.mark.parametrize("p", [4, 8, 16, 32])
    def test_out_of_range_symbols_are_rejected(self, p):
        # Packing keeps p bits: 300 at p=8 would be stored, served and
        # digested as 0x2c while ``payload`` still said 300.
        top = (1 << p) - 1
        assert EncodedMessage(1, 2, [0, top], p).payload.tolist() == [0, top]
        with pytest.raises(MessageFormatError, match="outside GF"):
            EncodedMessage(1, 2, [0, top + 1], p)
        with pytest.raises(MessageFormatError, match="outside GF"):
            EncodedMessage(1, 2, np.array([1, -1]), p)
        with pytest.raises(MessageFormatError, match="outside GF"):
            make_message(p=p).with_payload(np.array([top + 1], dtype=np.uint64))
        with pytest.raises(MessageFormatError, match="outside GF"):
            pack_rows(np.array([[0, 1], [top + 1, 0]]), p)

    def test_the_issues_example_is_rejected(self):
        with pytest.raises(MessageFormatError):
            EncodedMessage(1, 2, [1, 2, 300, 70000], p=8)

    def test_unsupported_width(self):
        with pytest.raises(MessageFormatError, match="symbol width"):
            EncodedMessage(1, 2, [1], p=7)
        with pytest.raises(MessageFormatError, match="symbol width"):
            EncodedMessage.from_bytes(bytes(20), p=0)

    @pytest.mark.parametrize("bad_id", [-1, 1 << 64])
    def test_id_range_enforced(self, bad_id):
        with pytest.raises(MessageFormatError):
            EncodedMessage(
                file_id=bad_id, message_id=0,
                payload=np.zeros(4, dtype=np.uint32), p=8,
            )
        with pytest.raises(MessageFormatError):
            EncodedMessage(
                file_id=0, message_id=bad_id,
                payload=np.zeros(4, dtype=np.uint32), p=8,
            )


class TestWireFormat:
    @pytest.mark.parametrize("p,m", [(4, 6), (8, 10), (16, 7), (32, 3)])
    def test_roundtrip(self, p, m, rng):
        msg = make_message(p=p, m=m, rng=rng)
        wire = msg.to_bytes()
        parsed = EncodedMessage.from_bytes(wire, p=p)
        assert parsed.file_id == msg.file_id
        assert parsed.message_id == msg.message_id
        assert np.array_equal(parsed.payload, msg.payload)

    def test_header_layout(self):
        msg = make_message(file_id=1, message_id=2)
        wire = msg.to_bytes()
        assert wire[:8] == (1).to_bytes(8, "big")
        assert wire[8:16] == (2).to_bytes(8, "big")

    def test_wire_size(self):
        msg = make_message(p=16, m=8)
        assert msg.wire_size() == HEADER_BYTES + 16
        assert len(msg.to_bytes()) == msg.wire_size()

    @given(p=st.sampled_from([4, 8, 16, 32]), m=st.integers(0, 257))
    def test_wire_size_is_computed_not_packed(self, p, m):
        # Odd m matters at p=4, where two symbols share a byte.
        msg = EncodedMessage(
            file_id=1, message_id=2, payload=np.zeros(m, dtype=np.uint32), p=p
        )
        assert msg.wire_size() == len(msg.to_bytes())

    def test_truncated_wire_raises(self):
        with pytest.raises(MessageFormatError):
            EncodedMessage.from_bytes(b"\x00" * 10, p=8)

    @given(wire=st.binary(max_size=64), p=st.sampled_from([4, 8, 16, 32]))
    def test_arbitrary_bytes_parse_exactly_or_raise(self, wire, p):
        try:
            parsed = EncodedMessage.from_bytes(wire, p=p)
        except MessageFormatError:
            return
        assert parsed.to_bytes() == wire  # nothing padded, nothing dropped

    def test_max_ids_roundtrip(self):
        big = (1 << 64) - 1
        msg = EncodedMessage(
            file_id=big, message_id=big, payload=np.zeros(2, dtype=np.uint32), p=8
        )
        parsed = EncodedMessage.from_bytes(msg.to_bytes(), p=8)
        assert parsed.file_id == big and parsed.message_id == big


class TestFromBytes:
    def test_bytes_are_held_not_copied_and_never_unpacked_to_serialise(self):
        wire = make_message(p=8, m=32).to_bytes()
        msg = EncodedMessage.from_bytes(wire, p=8)
        assert msg.payload_bytes().obj is wire  # a slice of what was parsed
        assert msg.m == 32 and msg.wire_size() == len(wire)
        assert msg.to_bytes() == wire
        assert msg._symbols is None  # none of the above needed a symbol

    def test_writable_input_is_copied(self):
        raw = bytearray(make_message(p=16, m=4).to_bytes())
        for wire in (raw, memoryview(raw), memoryview(raw).toreadonly()):
            parsed = EncodedMessage.from_bytes(wire, p=16)
            (record,) = EncodedMessage.from_records(wire, p=16, m=4)
            before = bytes(raw)
            raw[-1] ^= 0xFF
            assert parsed.to_bytes() == record.to_bytes() == before
            assert int(parsed.payload[-1]) == int.from_bytes(before[-2:], "big")

    def test_p4_odd_m_names_the_padding_nibble(self):
        msg = EncodedMessage(1, 2, [1, 2, 3], p=4)
        assert bytes(msg.payload_bytes()) == b"\x12\x30" and msg.m == 3
        (same,) = EncodedMessage.from_records(msg.to_bytes(), p=4, m=3)
        assert same == msg and same.payload.tolist() == [1, 2, 3]
        assert EncodedMessage.from_bytes(msg.to_bytes(), p=4).m == 4

    def test_from_records_slices_one_blob(self):
        msgs = [make_message(p=16, m=5, message_id=i) for i in range(4)]
        blob = b"".join(m.to_bytes() for m in msgs)
        parsed = EncodedMessage.from_records(blob, p=16, m=5)
        assert parsed == msgs
        assert all(m.payload_bytes().obj is blob for m in parsed)
        assert EncodedMessage.from_records(b"", p=16, m=5) == []
        assert EncodedMessage.from_records(b"", p=16, m=1 << 62) == []
        with pytest.raises(MessageFormatError, match="not a multiple of record size 26"):
            EncodedMessage.from_records(blob[:-1], p=16, m=5)
        for p, m in [(0, 5), (12, 5), (8, -1)]:
            with pytest.raises(MessageFormatError, match="unsupported record shape"):
                EncodedMessage.from_records(blob, p=p, m=m)

    def test_from_records_checks_each_padding_nibble(self):
        odd = [EncodedMessage(1, i, [1, 2, 3], p=4) for i in range(3)]
        blob = bytearray(b"".join(m.to_bytes() for m in odd))
        assert EncodedMessage.from_records(blob, p=4, m=3) == odd
        blob[2 * 18 - 1] |= 0x01  # second record's last byte
        with pytest.raises(MessageFormatError, match="record at byte 18 has non-zero padding"):
            EncodedMessage.from_records(blob, p=4, m=3)
        assert len(EncodedMessage.from_records(blob, p=4, m=4)) == 3  # a symbol there

    def test_from_block_slices_one_buffer(self):
        rows = np.arange(12, dtype=np.uint32).reshape(3, 4)
        msgs = EncodedMessage.from_block(9, [5, 6, 7], pack_rows(rows, 16), 16, 4)
        assert [m.message_id for m in msgs] == [5, 6, 7]
        assert len({id(m.payload_bytes().obj) for m in msgs}) == 1
        for row, msg in zip(rows, msgs):
            assert msg == EncodedMessage(9, msg.message_id, row, 16)
        odd = EncodedMessage.from_block(9, [1, 2], pack_rows([[1, 2, 3], [4, 5, 6]], 4), 4, 3)
        assert [bytes(m.payload_bytes()) for m in odd] == [b"\x12\x30", b"\x45\x60"]
        assert [m.m for m in odd] == [3, 3]


class TestValueSemantics:
    def test_equal_bytes_equal_messages(self):
        a = make_message()
        b = EncodedMessage.from_bytes(a.to_bytes(), p=a.p)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert repr(a) == repr(b) and "message_id=42" in repr(a)

    def test_any_differing_field_differs(self):
        a = make_message(p=8, m=4)
        others = [
            make_message(p=8, m=4, file_id=1),
            make_message(p=8, m=4, message_id=1),
            a.with_payload(np.asarray(a.payload) ^ 1),
            EncodedMessage.from_bytes(a.to_bytes(), p=16),
        ]
        assert all(a != other for other in others)
        assert a != a.to_bytes() and a != None  # noqa: E711

    def test_p4_odd_m_is_not_its_even_neighbour(self):
        odd = EncodedMessage(1, 2, [1, 2, 3], p=4)
        even = EncodedMessage(1, 2, [1, 2, 3, 0], p=4)
        assert odd.to_bytes() == even.to_bytes() and odd != even


class TestHelpers:
    def test_with_payload_copies_identity(self):
        msg = make_message()
        other = msg.with_payload(np.asarray(msg.payload).copy() ^ 1)
        assert other.file_id == msg.file_id
        assert other.message_id == msg.message_id
        assert not np.array_equal(other.payload, msg.payload)

    def test_payload_bytes_match_wire_tail(self):
        msg = make_message()
        assert msg.to_bytes()[HEADER_BYTES:] == msg.payload_bytes()
