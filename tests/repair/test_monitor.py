"""Unit tests for the repair control loop (repro.repair.monitor)."""

import pytest

from repro.gf import GF
from repro.repair import (
    DownloadRepairTrigger,
    RedundancyMonitor,
    RepairCoordinator,
    RepairRecord,
)
from repro.repair.monitor import BACKOFF_SLOTS, MAX_ATTEMPTS
from repro.rlnc import CodingParams, FileEncoder

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8
FILE_ID = 0xF00D


@pytest.fixture
def helpers(rng):
    encoder = FileEncoder(PARAMS, b"owner-secret", file_id=FILE_ID)
    source = encoder.source_matrix(rng.bytes(PARAMS.file_bytes))
    return encoder.encode_ids(source, list(range(12)))


class TestRedundancyMonitor:
    def test_target_rounds_up(self):
        assert RedundancyMonitor(8, threshold=1.0).target == 8
        assert RedundancyMonitor(8, threshold=1.5).target == 12
        assert RedundancyMonitor(8, threshold=1.1).target == 9

    def test_deficit_tracks_census(self):
        monitor = RedundancyMonitor(8)
        assert monitor.deficit(0) == 8
        assert monitor.deficit(5) == 3
        assert monitor.deficit(11) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RedundancyMonitor(0)
        with pytest.raises(ValueError):
            RedundancyMonitor(8, threshold=0.0)


class TestRepairCoordinator:
    def _coordinator(self, records=None):
        return RepairCoordinator(GF(16), {} if records is None else records)

    def test_successful_epoch(self, helpers):
        outcome = self._coordinator().repair(
            FILE_ID,
            [(0, lambda: helpers[:4]), (1, lambda: helpers[4:8])],
            count=3,
        )
        assert outcome.ok
        assert outcome.report.produced == 3
        assert len(outcome.messages) == 3
        assert not outcome.report.degraded
        assert outcome.record.helper_ids == tuple(range(8))

    def test_duplicate_helper_messages_are_deduped(self, helpers):
        outcome = self._coordinator().repair(
            FILE_ID,
            [(0, lambda: helpers[:4]), (1, lambda: helpers[:4])],
            count=2,
        )
        assert outcome.ok
        assert outcome.report.helper_messages == 4

    def test_failed_helper_is_excluded_with_warning(self, helpers):
        def dies():
            raise OSError("connection reset")

        outcome = self._coordinator().repair(
            FILE_ID,
            [(0, dies), (1, lambda: helpers[:6])],
            count=4,
        )
        assert outcome.ok
        assert outcome.report.helpers_failed == 1
        assert any("helper 0 failed" in w for w in outcome.report.warnings)

    def test_partial_repair_degrades_gracefully(self, helpers):
        outcome = self._coordinator().repair(
            FILE_ID, [(0, lambda: helpers[:3])], count=5
        )
        assert outcome.ok
        assert outcome.report.produced == 3
        assert outcome.report.degraded
        assert any("partial repair" in w for w in outcome.report.warnings)

    def test_total_failure_backs_off_and_reports(self):
        def dies():
            raise OSError("gone")

        records = {}
        outcome = self._coordinator(records).repair(FILE_ID, [(0, dies)], count=4)
        assert not outcome.ok
        assert outcome.record is None
        assert outcome.messages == ()
        assert outcome.report.degraded
        assert outcome.report.attempts == MAX_ATTEMPTS
        # Backoff before every retry; a failed epoch files no record.
        assert outcome.report.waited_slots == (MAX_ATTEMPTS - 1) * BACKOFF_SLOTS
        assert records == {}

    def test_foreign_file_messages_ignored(self, helpers, rng):
        other = FileEncoder(PARAMS, b"owner-secret", file_id=0xBEEF)
        rogue = other.encode_ids(
            other.source_matrix(rng.bytes(64)), list(range(4))
        )
        outcome = self._coordinator().repair(
            FILE_ID, [(0, lambda: rogue + helpers[:4])], count=2
        )
        assert outcome.ok
        assert outcome.report.helper_messages == 4

    def test_epochs_are_monotone_per_file(self, helpers):
        records = {}
        coordinator = self._coordinator(records)
        first = coordinator.repair(FILE_ID, [(0, lambda: helpers[:4])], count=2)
        second = coordinator.repair(FILE_ID, [(0, lambda: helpers[:4])], count=2)
        assert first.record.epoch == 0
        assert second.record.epoch == 1
        assert records == {FILE_ID: [first.record, second.record]}
        other = coordinator.repair(0xBEEF, [(0, lambda: helpers[:4])], count=1)
        assert not other.ok  # no helper holds 0xBEEF
        assert other.report.epoch == 0

    def test_epoch_continues_a_loaded_registry(self, helpers):
        loaded = [RepairRecord(FILE_ID, e, (0, 1), 1) for e in range(2)]
        records = {FILE_ID: list(loaded)}
        outcome = self._coordinator(records).repair(
            FILE_ID, [(0, lambda: helpers[:4])], count=2
        )
        assert outcome.record.epoch == 2
        assert records[FILE_ID] == [*loaded, outcome.record]


class TestDownloadRepairTrigger:
    def test_fires_below_threshold(self):
        calls = []
        trigger = DownloadRepairTrigger(hook=lambda n: calls.append(n) or 3)
        assert not trigger.should_fire(needed=4, supply=4)
        assert trigger.should_fire(needed=4, supply=3)
        assert trigger.fire(4) == 3
        assert calls == [4]
        assert trigger.injected == 3

    def test_threshold_scales_need(self):
        trigger = DownloadRepairTrigger(hook=lambda n: 0, threshold=2.0)
        assert trigger.should_fire(needed=4, supply=7)
        assert not trigger.should_fire(needed=4, supply=8)

    def test_max_fires(self):
        # One fire per download: a doomed transfer cannot hammer repair.
        trigger = DownloadRepairTrigger(hook=lambda n: 0)
        trigger.fire(4)
        assert trigger.fires == 1
        assert not trigger.should_fire(needed=4, supply=0)

    def test_complete_download_never_fires(self):
        trigger = DownloadRepairTrigger(hook=lambda n: 0)
        assert not trigger.should_fire(needed=0, supply=0)
