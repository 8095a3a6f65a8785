"""Structured trace events: typed records in a ring buffer, JSONL export.

A :class:`TraceEvent` carries the event name (one of the constants in
:mod:`repro.obs.events`), a wall-clock timestamp (``time.time``), a
monotonic timestamp (``time.perf_counter_ns``) and a flat dict of
JSON-able fields.  Events land in an in-memory ring buffer (oldest
dropped at capacity) and can be exported as JSON Lines — one event per
line — for offline analysis.

The timestamp is taken and the event appended under one lock, so buffer
order always equals monotonic-timestamp order, even with emitting
threads racing.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from .events import TRACE_META

__all__ = ["TraceEvent", "TraceBuffer", "TRACER", "read_jsonl"]


@dataclass(frozen=True)
class TraceEvent:
    """One structured event.

    Attributes
    ----------
    name:
        Dotted event type, e.g. ``"rlnc.offer"`` (see
        :mod:`repro.obs.events` for the taxonomy).
    wall:
        Seconds since the epoch (``time.time``) — for humans and for
        correlating traces across processes.
    mono_ns:
        ``time.perf_counter_ns`` at emit — for intra-process ordering
        and duration arithmetic.
    fields:
        Event payload; values must be JSON-serialisable.
    """

    name: str
    wall: float
    mono_ns: int
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall": self.wall,
            "mono_ns": self.mono_ns,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "TraceEvent":
        return cls(
            name=blob["name"],
            wall=float(blob["wall"]),
            mono_ns=int(blob["mono_ns"]),
            fields=dict(blob.get("fields", {})),
        )


class TraceBuffer:
    """Bounded in-memory event sink with an ``enabled`` fast-path gate.

    Like the metrics registry, ``enabled`` is a plain attribute checked
    by :meth:`emit` before any work happens, so disabled tracing costs
    one branch per call site.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.enabled = False
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, name: str, **fields) -> None:
        """Record one event (no-op unless :attr:`enabled`)."""
        if not self.enabled:
            return
        with self._lock:
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(
                TraceEvent(
                    name=name,
                    wall=time.time(),
                    mono_ns=time.perf_counter_ns(),
                    fields=fields,
                )
            )

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[TraceEvent]:
        """A snapshot copy of buffered events, oldest first."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def recorded(self) -> list[TraceEvent]:
        """The buffered events behind a synthetic ``trace.meta`` header.

        The header records the event count, the ring capacity and —
        crucially — :attr:`dropped`, so a truncated trace can never
        masquerade as a complete run: reports built from this list (or
        from the file :meth:`write_jsonl` makes of it) warn about drops.
        """
        with self._lock:
            events = list(self._events)
            dropped = self.dropped
        meta = TraceEvent(
            name=TRACE_META,
            wall=events[0].wall if events else time.time(),
            # Stamped below every real event so a meta-inclusive read
            # still satisfies "buffer order == monotonic order".
            mono_ns=0,
            fields={
                "events": len(events),
                "dropped": dropped,
                "capacity": self.capacity,
            },
        )
        return [meta, *events]

    def write_jsonl(self, path_or_file) -> int:
        """Write :meth:`recorded` as JSON Lines; returns the event count.

        Accepts a path or an open text file object.  The ``trace.meta``
        header is the first line; it is not counted in the return value
        and :func:`read_jsonl` strips it by default.
        """
        records = self.recorded()
        if hasattr(path_or_file, "write"):
            for record in records:
                path_or_file.write(json.dumps(record.to_dict()) + "\n")
        else:
            with open(path_or_file, "w") as fh:
                for record in records:
                    fh.write(json.dumps(record.to_dict()) + "\n")
        return len(records) - 1


def read_jsonl(path_or_file, meta: bool = False) -> list[TraceEvent]:
    """Parse a JSONL trace back into :class:`TraceEvent` objects.

    ``trace.meta`` header records are stripped unless ``meta=True``, so
    by default the result round-trips against :meth:`TraceBuffer.events`.
    """
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file) as fh:
            lines = fh.read().splitlines()
    events = [
        TraceEvent.from_dict(json.loads(line)) for line in lines if line.strip()
    ]
    if meta:
        return events
    return [e for e in events if e.name != TRACE_META]


#: Process-wide default trace buffer used by all instrumentation sites.
TRACER = TraceBuffer()
