"""Unit tests for the survivor-repair codec (repro.repair.recombine)."""

import numpy as np
import pytest

from repro.gf import GF, IncrementalRank
from repro.repair import (
    REPAIR_ID_BASE,
    RepairableCoefficients,
    RepairError,
    RepairRecord,
    effective_rows,
    is_repair_id,
    recombination_matrix,
    recombine,
    records_from_dict,
    records_to_dict,
    register_repair_digests,
    repair_message_id,
    split_repair_id,
)
from repro.rlnc import (
    CodingParams,
    FileEncoder,
    ProgressiveDecoder,
    UnknownCoefficientError,
    bytes_to_symbols,
)
from repro.security import DigestStore

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8


def source_symbols(source):
    """The symbols of the encoder's source records."""
    return bytes_to_symbols(source.tobytes(), PARAMS.p).reshape(PARAMS.k, PARAMS.m)
FILE_ID = 0xF00D


@pytest.fixture
def encoder():
    return FileEncoder(PARAMS, b"owner-secret", file_id=FILE_ID)


@pytest.fixture
def source(encoder, rng):
    return encoder.source_matrix(rng.bytes(PARAMS.file_bytes))


@pytest.fixture
def helpers(encoder, source):
    """Twelve ordinary coded messages (ids 0..11) playing the survivors."""
    return encoder.encode_ids(source, list(range(12)))


class TestIdSpace:
    def test_round_trip(self):
        for epoch, index in [(0, 0), (3, 7), (2**31 - 1, 2**32 - 1)]:
            mid = repair_message_id(epoch, index)
            assert is_repair_id(mid)
            assert split_repair_id(mid) == (epoch, index)

    def test_reserved_range_is_the_top_bit(self):
        assert REPAIR_ID_BASE == 1 << 63
        assert not is_repair_id(REPAIR_ID_BASE - 1)
        assert is_repair_id(REPAIR_ID_BASE)

    def test_out_of_range_raises(self):
        with pytest.raises(RepairError):
            repair_message_id(2**31, 0)
        with pytest.raises(RepairError):
            repair_message_id(0, 2**32)
        with pytest.raises(RepairError):
            repair_message_id(-1, 0)

    def test_split_of_ordinary_id_raises(self):
        with pytest.raises(RepairError):
            split_repair_id(42)

    def test_base_generator_refuses_reserved_ids(self, encoder):
        with pytest.raises(UnknownCoefficientError):
            encoder.coefficients.row(repair_message_id(0, 0))


class TestRepairRecord:
    def test_validation(self):
        with pytest.raises(RepairError):
            RepairRecord(FILE_ID, 0, (), 1)  # no helpers
        with pytest.raises(RepairError):
            RepairRecord(FILE_ID, 0, (1, 1, 2), 2)  # duplicate helper
        with pytest.raises(RepairError):
            RepairRecord(FILE_ID, 0, (1, 2), 3)  # count > helpers
        with pytest.raises(RepairError):
            RepairRecord(FILE_ID, 0, (1, 2), 0)  # count < 1

    def test_message_ids(self):
        record = RepairRecord(FILE_ID, epoch=5, helper_ids=(1, 2, 3), count=2)
        assert record.message_ids == (
            repair_message_id(5, 0),
            repair_message_id(5, 1),
        )

    def test_dict_round_trip(self):
        record = RepairRecord(FILE_ID, 1, (4, 9, 2), 3)
        assert RepairRecord.from_dict(record.to_dict()) == record
        grouped = records_from_dict(records_to_dict([record]))
        assert grouped == {FILE_ID: [record]}


class TestRecombinationMatrix:
    def test_deterministic_and_full_rank(self):
        record = RepairRecord(FILE_ID, 0, tuple(range(6)), 4)
        field = GF(16)
        a = recombination_matrix(record, field)
        b = recombination_matrix(record, field)
        assert a.shape == (4, 6)
        assert np.array_equal(a, b)
        tracker = IncrementalRank(field, 6)
        for row in a:
            assert tracker.offer(row)
        assert not a.flags.writeable

    def test_helper_set_changes_matrix(self):
        field = GF(16)
        a = recombination_matrix(RepairRecord(FILE_ID, 0, (0, 1, 2), 2), field)
        b = recombination_matrix(RepairRecord(FILE_ID, 0, (0, 1, 3), 2), field)
        assert not np.array_equal(a, b)

    def test_epoch_changes_matrix(self):
        field = GF(16)
        a = recombination_matrix(RepairRecord(FILE_ID, 0, (0, 1, 2), 2), field)
        b = recombination_matrix(RepairRecord(FILE_ID, 1, (0, 1, 2), 2), field)
        assert not np.array_equal(a, b)


class TestRecombine:
    def test_fresh_messages_carry_reserved_ids(self, helpers):
        record = RepairRecord(
            FILE_ID, 0, tuple(m.message_id for m in helpers[:6]), 4
        )
        fresh = recombine(record, helpers[:6])
        assert [m.message_id for m in fresh] == list(record.message_ids)
        assert all(m.file_id == FILE_ID and m.p == PARAMS.p for m in fresh)

    def test_deterministic(self, helpers):
        record = RepairRecord(
            FILE_ID, 0, tuple(m.message_id for m in helpers[:6]), 4
        )
        a = recombine(record, helpers[:6])
        b = recombine(record, helpers[:6])
        for x, y in zip(a, b):
            assert np.array_equal(x.payload, y.payload)

    def test_order_matters(self, helpers):
        record = RepairRecord(
            FILE_ID, 0, tuple(m.message_id for m in helpers[:4]), 2
        )
        with pytest.raises(RepairError):
            recombine(record, list(reversed(helpers[:4])))

    def test_count_mismatch_raises(self, helpers):
        record = RepairRecord(
            FILE_ID, 0, tuple(m.message_id for m in helpers[:4]), 2
        )
        with pytest.raises(RepairError):
            recombine(record, helpers[:3])

    def test_foreign_file_raises(self, helpers):
        other = FileEncoder(PARAMS, b"owner-secret", file_id=0xBEEF)
        rogue = other.encode_ids(
            other.source_matrix(b"x" * PARAMS.file_bytes), [99]
        )[0]
        record = RepairRecord(FILE_ID, 0, (helpers[0].message_id, 99), 1)
        with pytest.raises(RepairError):
            recombine(record, [helpers[0], rogue])

    def test_effective_rows_match_payloads(self, encoder, source, helpers):
        """The algebraic identity: R @ (B X) == (R @ B) X."""
        record = RepairRecord(
            FILE_ID, 0, tuple(m.message_id for m in helpers[:8]), 5
        )
        fresh = recombine(record, helpers[:8])
        rows = effective_rows(record, encoder.coefficients)
        expected = encoder.field.matmul(rows, source_symbols(source))
        for i, message in enumerate(fresh):
            assert np.array_equal(message.payload, expected[i])


class TestRegisterRepairDigests:
    def test_digests_verify_and_cost_is_bytes_only(
        self, encoder, source, helpers
    ):
        record = RepairRecord(
            FILE_ID, 0, tuple(m.message_id for m in helpers[:6]), 4
        )
        fresh = recombine(record, helpers[:6])
        digests = DigestStore()
        shipped = register_repair_digests(
            record, encoder.coefficients, source, digests
        )
        assert shipped == 16 * record.count  # MD5 only — never payloads
        for message in fresh:
            assert digests.verify(
                FILE_ID, message.message_id, message.payload_bytes()
            )

    def test_tampered_payload_fails_verification(self, encoder, source, helpers):
        record = RepairRecord(
            FILE_ID, 0, tuple(m.message_id for m in helpers[:6]), 2
        )
        fresh = recombine(record, helpers[:6])
        digests = DigestStore()
        register_repair_digests(record, encoder.coefficients, source, digests)
        tampered = bytearray(fresh[0].payload_bytes())
        tampered[0] ^= 0xFF
        assert not digests.verify(FILE_ID, fresh[0].message_id, bytes(tampered))


class TestRepairableCoefficients:
    def _record(self, helpers, epoch=0, count=4, start=0):
        return RepairRecord(
            FILE_ID,
            epoch,
            tuple(m.message_id for m in helpers[start : start + 6]),
            count,
        )

    def test_ordinary_ids_pass_through(self, encoder, helpers):
        wrapped = RepairableCoefficients(encoder.coefficients)
        assert np.array_equal(wrapped.row(3), encoder.coefficients.row(3))

    def test_registered_epoch_resolves(self, encoder, helpers):
        record = self._record(helpers)
        wrapped = RepairableCoefficients(encoder.coefficients, [record])
        rows = effective_rows(record, encoder.coefficients)
        for i, mid in enumerate(record.message_ids):
            assert np.array_equal(wrapped.row(mid), rows[i])

    def test_unregistered_epoch_raises(self, encoder, helpers):
        wrapped = RepairableCoefficients(encoder.coefficients)
        with pytest.raises(UnknownCoefficientError):
            wrapped.row(repair_message_id(0, 0))

    def test_index_beyond_count_raises(self, encoder, helpers):
        record = self._record(helpers, count=2)
        wrapped = RepairableCoefficients(encoder.coefficients, [record])
        with pytest.raises(UnknownCoefficientError):
            wrapped.row(repair_message_id(0, 2))

    def test_live_source_sees_later_registrations(self, encoder, helpers):
        registry: list[RepairRecord] = []
        wrapped = RepairableCoefficients(
            encoder.coefficients, lambda: registry
        )
        mid = repair_message_id(0, 0)
        with pytest.raises(UnknownCoefficientError):
            wrapped.row(mid)
        registry.append(self._record(helpers))  # repair runs *after* build
        assert wrapped.row(mid) is not None

    def test_conflicting_epoch_registration_raises(self, encoder, helpers):
        record = self._record(helpers)
        other = self._record(helpers, start=1)
        wrapped = RepairableCoefficients(encoder.coefficients, [record])
        with pytest.raises(RepairError):
            wrapped.register(other)

    def test_foreign_file_record_raises(self, encoder, helpers):
        record = RepairRecord(0xBEEF, 0, (1, 2, 3), 2)
        with pytest.raises(RepairError):
            RepairableCoefficients(encoder.coefficients, [record])

    def test_repair_of_repairs_resolves(self, encoder, source, helpers):
        """Second-epoch helpers may be first-epoch repaired messages."""
        first = self._record(helpers)
        fresh = recombine(first, helpers[:6])
        second = RepairRecord(
            FILE_ID,
            1,
            tuple(m.message_id for m in fresh[:3]) + (helpers[6].message_id,),
            2,
        )
        nested = recombine(second, fresh[:3] + [helpers[6]])
        wrapped = RepairableCoefficients(encoder.coefficients, [first, second])
        expected = encoder.field.matmul(
            wrapped.matrix(second.message_ids), source_symbols(source)
        )
        for i, message in enumerate(nested):
            assert np.array_equal(message.payload, expected[i])

    def test_self_citing_record_raises(self, encoder):
        rogue = RepairRecord(FILE_ID, 0, (repair_message_id(0, 0), 5), 1)
        wrapped = RepairableCoefficients(encoder.coefficients, [rogue])
        with pytest.raises(RepairError):
            wrapped.row(repair_message_id(0, 0))


class TestDecodeWithRepairs:
    def test_survivors_plus_repaired_decode(self, encoder, rng):
        """k-1 survivors + one repaired message finish the decode."""
        data = rng.bytes(PARAMS.file_bytes)
        source = encoder.source_matrix(data)
        messages = encoder.encode_ids(source, list(range(PARAMS.k + 2)))
        survivors = messages[: PARAMS.k - 1]
        helpers = messages[PARAMS.k - 1 :]  # rank the survivors lack
        record = RepairRecord(
            FILE_ID, 0, tuple(m.message_id for m in helpers), 2
        )
        fresh = recombine(record, helpers)
        digests = DigestStore()
        for message in survivors:
            digests.record(FILE_ID, message.message_id, message.payload_bytes())
        register_repair_digests(record, encoder.coefficients, source, digests)
        decoder = ProgressiveDecoder(
            PARAMS,
            RepairableCoefficients(encoder.coefficients, [record]),
            digest_store=digests,
        )
        for message in survivors:
            decoder.offer(message)
        assert not decoder.is_complete
        decoder.offer(fresh[0])
        assert decoder.is_complete
        assert decoder.result() == data

    def test_unregistered_repair_message_is_rejected(self, encoder, rng):
        data = rng.bytes(PARAMS.file_bytes)
        source = encoder.source_matrix(data)
        messages = encoder.encode_ids(source, list(range(6)))
        record = RepairRecord(
            FILE_ID, 0, tuple(m.message_id for m in messages), 2
        )
        fresh = recombine(record, messages)
        decoder = ProgressiveDecoder(PARAMS, encoder.coefficients)
        outcome = decoder.offer(fresh[0])
        assert outcome.name == "REJECTED"
