"""Redundancy tracking and the repair control loop.

The codec (:mod:`repro.repair.recombine`) answers *how* to mint fresh
coded messages from survivors; this module answers *when* and *from
whom*.  :class:`RedundancyMonitor` turns a live coded-message count
into a deficit against a threshold (expressed in multiples of ``k``,
the decode requirement).  :class:`RepairCoordinator` owns the
``{chunk_id: [RepairRecord, ...]}`` registry and runs one repair epoch
end to end: take the epoch from the registry, gather helper messages
(tolerating helpers that fail mid-repair, with retry and
slot-denominated backoff), build the replayable
:class:`~repro.repair.recombine.RepairRecord`, recombine — degrading
gracefully to a partial repair with a warning when the surviving rank
cannot cover the request — and file the record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gf import BinaryField
from ..obs import TRACER as _TRACER
from ..obs import spans as _spans
from ..obs.events import REPAIR_DONE, REPAIR_FAILED, REPAIR_START
from .recombine import RepairRecord, recombine

__all__ = [
    "MAX_ATTEMPTS",
    "BACKOFF_SLOTS",
    "RedundancyMonitor",
    "RepairCoordinator",
    "RepairOutcome",
    "RepairReport",
    "DownloadRepairTrigger",
]

#: Gathering rounds a repair makes before it gives up on its helpers.
MAX_ATTEMPTS = 3
#: Slots a repair backs off after a round that gathered nothing
#: (accounted in the report; the surrounding sim owns time).
BACKOFF_SLOTS = 1


class RedundancyMonitor:
    """The deficit of a live coded-message count against a threshold.

    ``threshold`` is in multiples of ``k``: ``1.0`` means "keep at least
    enough messages to decode once", ``2.0`` keeps 2x decode-worth of
    redundancy.  The monitor is deliberately dumb — callers count
    whatever census they trust (a storage sweep, a sim's peer registry)
    and read back the deficit.
    """

    def __init__(self, k: int, threshold: float = 1.0):
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.k = k
        self.threshold = threshold

    @property
    def target(self) -> int:
        """Messages a file should keep live: ``ceil(threshold * k)``."""
        scaled = self.threshold * self.k
        whole = int(scaled)
        return whole if whole == scaled else whole + 1

    def deficit(self, live: int) -> int:
        """How many fresh messages repair should mint (0 = healthy)."""
        return max(0, self.target - live)


@dataclass(frozen=True)
class RepairReport:
    """Accounting for one repair run (degraded or not)."""

    file_id: int
    epoch: int
    requested: int
    produced: int
    helpers_contacted: int
    helpers_failed: int
    helper_messages: int
    bandwidth_bytes: int
    attempts: int
    waited_slots: int
    degraded: bool
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "file_id": self.file_id,
            "epoch": self.epoch,
            "requested": self.requested,
            "produced": self.produced,
            "helpers_contacted": self.helpers_contacted,
            "helpers_failed": self.helpers_failed,
            "helper_messages": self.helper_messages,
            "bandwidth_bytes": self.bandwidth_bytes,
            "attempts": self.attempts,
            "waited_slots": self.waited_slots,
            "degraded": self.degraded,
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class RepairOutcome:
    """What a repair run handed back: fresh messages plus provenance."""

    messages: tuple = ()
    record: RepairRecord | None = None
    report: RepairReport | None = None

    @property
    def ok(self) -> bool:
        return self.record is not None


class RepairCoordinator:
    """Runs repair epochs against a set of fallible helpers.

    ``records`` is the ``{chunk_id: [RepairRecord, ...]}`` registry a
    :class:`~repro.repair.recombine.RepairAwareSource` reads, shared by
    reference: a chunk's next epoch is the length of its record list,
    and every successful repair appends its record there.

    Helpers are ``(peer_id, supply)`` pairs where ``supply()`` returns
    the peer's stored :class:`~repro.rlnc.message.EncodedMessage` list
    for the file — or raises, which marks the helper failed for the rest
    of this repair.  A round that gathers nothing backs off
    :data:`BACKOFF_SLOTS` and retries, :data:`MAX_ATTEMPTS` rounds in all.
    """

    def __init__(self, field: BinaryField, records: dict[int, list]):
        self.field = field
        self.records = records

    def repair(self, file_id: int, helpers, count: int) -> RepairOutcome:
        """Run the file's next repair epoch; degrade rather than fail when possible."""
        helpers = list(helpers)
        epoch = len(self.records.get(file_id, ()))
        _TRACER.emit(
            REPAIR_START,
            file_id=file_id,
            epoch=epoch,
            helpers=len(helpers),
            requested=count,
        )
        with _spans.span_scope("repair.run", file_id=file_id, epoch=epoch):
            outcome = self._run(file_id, helpers, count, epoch)
        if outcome.ok:
            self.records.setdefault(file_id, []).append(outcome.record)
        return outcome

    def _run(self, file_id, helpers, count, epoch) -> RepairOutcome:
        warnings: list[str] = []
        failed: set[int] = set()
        gathered: list = []
        gathered_ids: set[int] = set()
        contacted: set[int] = set()
        bandwidth = 0
        waited = 0
        attempt = 0
        while attempt < MAX_ATTEMPTS:
            attempt += 1
            for peer_id, supply in helpers:
                if peer_id in failed:
                    continue
                contacted.add(peer_id)
                try:
                    messages = list(supply())
                except Exception as exc:  # helper died mid-repair
                    failed.add(peer_id)
                    warnings.append(f"helper {peer_id} failed: {exc}")
                    continue
                for msg in messages:
                    if msg.file_id != file_id:
                        continue
                    if msg.message_id in gathered_ids:
                        continue  # duplicate rows add no rank
                    gathered_ids.add(msg.message_id)
                    gathered.append(msg)
                    bandwidth += msg.wire_size()
            if gathered:
                break
            if attempt < MAX_ATTEMPTS:
                waited += BACKOFF_SLOTS
        if not gathered:
            _TRACER.emit(
                REPAIR_FAILED,
                file_id=file_id,
                epoch=epoch,
                attempt=attempt,
                reason="no surviving helper messages",
            )
            report = RepairReport(
                file_id=file_id,
                epoch=epoch,
                requested=count,
                produced=0,
                helpers_contacted=len(contacted),
                helpers_failed=len(failed),
                helper_messages=0,
                bandwidth_bytes=0,
                attempts=attempt,
                waited_slots=waited,
                degraded=True,
                warnings=tuple(warnings),
            )
            return RepairOutcome(messages=(), record=None, report=report)
        gathered.sort(key=lambda m: m.message_id)
        produced = min(count, len(gathered))
        if produced < count:
            warnings.append(
                f"surviving rank insufficient: requested {count} fresh "
                f"messages but only {len(gathered)} helper messages remain; "
                f"partial repair of {produced}"
            )
        record = RepairRecord(
            file_id=file_id,
            epoch=epoch,
            helper_ids=tuple(m.message_id for m in gathered),
            count=produced,
        )
        fresh = recombine(record, gathered, self.field)
        _TRACER.emit(
            REPAIR_DONE,
            file_id=file_id,
            epoch=epoch,
            produced=produced,
            degraded=produced < count,
        )
        report = RepairReport(
            file_id=file_id,
            epoch=epoch,
            requested=count,
            produced=produced,
            helpers_contacted=len(contacted),
            helpers_failed=len(failed),
            helper_messages=len(gathered),
            bandwidth_bytes=bandwidth,
            attempts=attempt,
            waited_slots=waited,
            degraded=produced < count,
            warnings=tuple(warnings),
        )
        return RepairOutcome(messages=tuple(fresh), record=record, report=report)


@dataclass
class DownloadRepairTrigger:
    """Mid-download repair hook for :class:`ParallelDownloader`.

    The downloader calls :meth:`fire` when the supply of undelivered
    messages across live sessions drops below ``threshold`` times what
    the decoder still needs.  ``hook(needed)`` performs the actual
    repair (typically via the embedding network, which knows the peers)
    and returns how many fresh messages it injected.  The trigger fires
    at most once, so a doomed download cannot hammer repair every slot.
    """

    hook: object
    threshold: float = 1.0
    fires: int = field(default=0, init=False)
    injected: int = field(default=0, init=False)

    def should_fire(self, needed: int, supply: int) -> bool:
        return needed > 0 and not self.fires and supply < needed * self.threshold

    def fire(self, needed: int) -> int:
        self.fires += 1
        added = int(self.hook(needed))
        self.injected += added
        return added
