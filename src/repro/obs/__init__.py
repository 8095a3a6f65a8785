"""Observability: metrics, structured tracing and run reports.

This package is dependency-free (standard library only) and sits below
every other ``repro`` layer — ``gf``/``security`` may import it without
violating the leaf-layer rule of ``docs/ARCHITECTURE.md``.

Everything is **off by default**: instrumentation sites guard on
``REGISTRY.enabled`` / ``TRACER.enabled`` (a single attribute read), so
hot loops pay ~zero cost until :func:`enable` is called.  Instrumented
code must behave bit-identically either way; only timings, counters and
trace events may differ.

Timers are registry histograms, observed between a guarded
``perf_counter_ns`` pair; causal intervals are :mod:`.spans`.  All
human-readable text — run reports, ``repro trace analyze``, snapshots
and the catalog — is rendered by :mod:`.report` (the OpenMetrics
exposition is :mod:`.export`).

Typical use::

    from repro import obs

    obs.enable(tracing=True)
    ... run a decode or simulation ...
    print(obs.render_snapshot(obs.REGISTRY.snapshot()))
    obs.TRACER.write_jsonl("trace.jsonl")
    obs.disable()

or scoped::

    with obs.observability(tracing=True):
        ...
"""

from __future__ import annotations

from contextlib import contextmanager

from . import analyze, events, export, report, spans
from .export import render_openmetrics, validate_openmetrics, write_openmetrics
from .registry import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry, quantile
from .report import render_catalog, render_snapshot
from .spans import (
    SpanHandle,
    current_span,
    finish_span,
    span_scope,
    start_span,
)
from .trace import TRACER, TraceBuffer, TraceEvent, read_jsonl

__all__ = [
    "REGISTRY",
    "TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanHandle",
    "TraceBuffer",
    "TraceEvent",
    "analyze",
    "current_span",
    "events",
    "enable",
    "disable",
    "enabled",
    "export",
    "finish_span",
    "observability",
    "quantile",
    "read_jsonl",
    "render_catalog",
    "render_openmetrics",
    "render_snapshot",
    "report",
    "span_scope",
    "spans",
    "start_span",
    "validate_openmetrics",
    "write_openmetrics",
]


def enable(tracing: bool = False) -> None:
    """Turn on metrics recording (and optionally trace emission)."""
    REGISTRY.enabled = True
    if tracing:
        TRACER.enabled = True


def disable() -> None:
    """Turn off all recording; registered metrics keep their state."""
    REGISTRY.enabled = False
    TRACER.enabled = False


def enabled() -> bool:
    """Whether metrics recording is currently on."""
    return REGISTRY.enabled


@contextmanager
def observability(tracing: bool = False, reset: bool = False):
    """Scoped enable/disable, restoring the previous switch state.

    With ``reset=True`` the registry and trace buffer are cleared on
    entry so the scope observes only its own activity.
    """
    prev_metrics = REGISTRY.enabled
    prev_tracing = TRACER.enabled
    if reset:
        REGISTRY.reset()
        TRACER.clear()
        spans.reset_ids()
    enable(tracing=tracing)
    try:
        yield REGISTRY
    finally:
        REGISTRY.enabled = prev_metrics
        TRACER.enabled = prev_tracing
