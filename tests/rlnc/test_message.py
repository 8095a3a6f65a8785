"""Unit tests for the encoded-message wire format (Fig. 3)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rlnc import HEADER_BYTES, EncodedMessage, MessageFormatError


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
