"""The trace-event taxonomy: every event name emitted by the stack.

Event names are dotted ``<subsystem>.<event>`` strings.  Keeping them as
module constants (rather than ad-hoc literals at the emit sites) gives
one place to read the vocabulary and lets tests assert exhaustively.

| event               | emitted by                       | fields |
|---------------------|----------------------------------|--------|
| ``rlnc.offer``      | ``ProgressiveDecoder.offer``     | ``file_id``, ``message_id``, ``outcome``, ``rank`` |
| ``transfer.start``  | ``ParallelDownloader.run``       | ``peers``, ``file_id`` |
| ``transfer.message``| ``ParallelDownloader`` (per msg) | ``slot``, ``peer``, ``outcome`` |
| ``transfer.complete``| ``ParallelDownloader``          | ``slot``, ``delivered``, ``dependent``, ``rejected`` |
| ``transfer.stop``   | ``ParallelDownloader`` (per peer)| ``peer``, ``slot``, ``lag_slots`` |
| ``transfer.discard``| robust download path (per msg)   | ``slot``, ``peer``, ``message_id`` |
| ``transfer.fault``  | robust download path (per peer)  | ``peer``, ``kind``, ``slot`` |
| ``transfer.retry``  | ``DownloadSession`` handshakes   | ``peer``, ``attempt``, ``backoff_slots`` |
| ``repair.start``    | ``RepairCoordinator.repair``     | ``file_id``, ``epoch``, ``helpers``, ``requested`` |
| ``repair.done``     | ``RepairCoordinator.repair``     | ``file_id``, ``epoch``, ``produced``, ``degraded`` |
| ``repair.failed``   | ``RepairCoordinator.repair``     | ``file_id``, ``epoch``, ``attempt``, ``reason`` |
| ``sim.engine_selected`` | ``Simulation.__init__``      | ``engine``, ``n``, ``reason``, ``workers`` |
| ``sim.slot``        | ``Simulation.step``              | ``t``, ``requesting``, ``allocated_kbps``, ``jain`` |
| ``sim.feedback``    | ``Simulation.step`` (on flush)   | ``t``, ``credited`` |
| ``span.start``      | ``obs.spans.start_span``         | ``trace_id``, ``span_id``, ``parent_id``, ``op``, ``attrs`` |
| ``span.end``        | ``obs.spans.finish_span``        | ``trace_id``, ``span_id``, ``op``, ``status`` |
| ``trace.meta``      | ``TraceBuffer.write_jsonl``      | ``events``, ``dropped``, ``capacity`` |

Span events are emitted exclusively by :mod:`repro.obs.spans`; the
*operation* vocabulary they carry in their ``op`` field is listed in
:data:`SPAN_OPS` (it is a payload value, not an event name, so the
lint rules do not gate it — tests do).  ``trace.meta`` is a synthetic
header record written by :meth:`TraceBuffer.write_jsonl`, never emitted
into the live ring.
"""

from __future__ import annotations

__all__ = [
    "EVENT_FIELDS",
    "RLNC_OFFER",
    "TRANSFER_START",
    "TRANSFER_MESSAGE",
    "TRANSFER_COMPLETE",
    "TRANSFER_STOP",
    "TRANSFER_DISCARD",
    "TRANSFER_FAULT",
    "TRANSFER_RETRY",
    "REPAIR_START",
    "REPAIR_DONE",
    "REPAIR_FAILED",
    "SIM_ENGINE_SELECTED",
    "SIM_SLOT",
    "SIM_FEEDBACK",
    "SPAN_START",
    "SPAN_END",
    "TRACE_META",
    "SPAN_OPS",
    "ALL_EVENTS",
]

RLNC_OFFER = "rlnc.offer"
TRANSFER_START = "transfer.start"
TRANSFER_MESSAGE = "transfer.message"
TRANSFER_COMPLETE = "transfer.complete"
TRANSFER_STOP = "transfer.stop"
TRANSFER_DISCARD = "transfer.discard"
TRANSFER_FAULT = "transfer.fault"
TRANSFER_RETRY = "transfer.retry"
REPAIR_START = "repair.start"
REPAIR_DONE = "repair.done"
REPAIR_FAILED = "repair.failed"
SIM_ENGINE_SELECTED = "sim.engine_selected"
SIM_SLOT = "sim.slot"
SIM_FEEDBACK = "sim.feedback"
SPAN_START = "span.start"
SPAN_END = "span.end"
TRACE_META = "trace.meta"

#: Known span operation names (the ``op`` payload of span events).
#: Not event names — kept here so the vocabulary has one home and
#: tests can assert recorded ops stay within it.
SPAN_OPS = (
    "transfer.download",
    "transfer.peer",
    "transfer.quarantine",
    "transfer.retry",
    "rlnc.offer_many",
    "rlnc.encode",
    "security.digest",
    "sim.run",
    "sim.step",
    "repair.run",
    "remote",
)

#: Every event name the stack can emit, for exhaustive assertions.
ALL_EVENTS = (
    RLNC_OFFER,
    TRANSFER_START,
    TRANSFER_MESSAGE,
    TRANSFER_COMPLETE,
    TRANSFER_STOP,
    TRANSFER_DISCARD,
    TRANSFER_FAULT,
    TRANSFER_RETRY,
    REPAIR_START,
    REPAIR_DONE,
    REPAIR_FAILED,
    SIM_ENGINE_SELECTED,
    SIM_SLOT,
    SIM_FEEDBACK,
    SPAN_START,
    SPAN_END,
    TRACE_META,
)

#: The payload schema per event — the machine-readable form of the
#: table above.  ``repro lint`` checks every emit site against this
#: mapping (rules ``trace-unknown-event`` / ``trace-fields``), so adding
#: an event or a field here is how the contract is changed.  Keys must
#: stay literal strings and values literal tuples: the linter reads this
#: dict from the AST without importing the module.
EVENT_FIELDS = {
    "rlnc.offer": ("file_id", "message_id", "outcome", "rank"),
    "transfer.start": ("peers", "file_id"),
    "transfer.message": ("slot", "peer", "outcome"),
    "transfer.complete": ("slot", "delivered", "dependent", "rejected"),
    "transfer.stop": ("peer", "slot", "lag_slots"),
    "transfer.discard": ("slot", "peer", "message_id"),
    "transfer.fault": ("peer", "kind", "slot"),
    "transfer.retry": ("peer", "attempt", "backoff_slots"),
    "repair.start": ("file_id", "epoch", "helpers", "requested"),
    "repair.done": ("file_id", "epoch", "produced", "degraded"),
    "repair.failed": ("file_id", "epoch", "attempt", "reason"),
    "sim.engine_selected": ("engine", "n", "reason", "workers"),
    "sim.slot": ("t", "requesting", "allocated_kbps", "jain"),
    "sim.feedback": ("t", "credited"),
    "span.start": ("trace_id", "span_id", "parent_id", "op", "attrs"),
    "span.end": ("trace_id", "span_id", "op", "status"),
    "trace.meta": ("events", "dropped", "capacity"),
}
