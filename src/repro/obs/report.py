"""Run reports and every human-readable rendering of ``repro.obs`` data.

This module turns a :class:`~repro.sim.metrics.SimulationResult`, a
batch of :class:`~repro.transfer.scheduler.DownloadReport` objects or a
recorded trace — plus, for the first two, optionally the trace recorded
alongside them — into one JSON-able dict (:func:`simulation_report` /
:func:`download_report` / :func:`trace_report`) and renders any of them
as text with :func:`render_report`.  ``repro simulate --report``,
``repro download --report`` and ``repro trace analyze`` are thin
wrappers over these functions: a download's report and the analysis of
its written trace print the same critical-path line and time-in-state
table, built by the same code.  Registry snapshots and the metric/event
catalog render here too (:func:`render_snapshot` /
:func:`render_catalog`), and :func:`trace_section` is the one place a
trace-ring drop turns into a warning.

The fairness trajectory is recomputed from the result arrays with the
*same* expression the engine's ``sim.slot`` emitter uses
(``jain_index`` over the requesting users' realised rates, 1.0 for idle
slots), so report values match the trace bit-for-bit.

numpy and ``repro.core`` are imported lazily inside the functions that
need them: ``repro.obs`` stays importable as a stdlib-only leaf layer,
and by the time a report is built the caller already holds numpy arrays.
"""

from __future__ import annotations

from . import analyze
from .events import SIM_SLOT, TRACE_META

__all__ = [
    "jain_trajectory",
    "simulation_report",
    "download_report",
    "trace_report",
    "trace_section",
    "render_report",
    "render_snapshot",
    "render_catalog",
]


def jain_trajectory(result) -> list[float]:
    """Per-slot Jain index over requesting users — the engine's formula.

    Matches the ``jain`` field of each ``sim.slot`` trace event exactly:
    ``jain_index(rates[t][requesting[t]])``, or 1.0 for slots in which
    nobody requested.  ``history="none"`` results carry the identical
    per-slot values in their streaming summary (the engine records them
    with the same expression as it steps), so reduced-history runs
    report the same trajectory bit for bit.
    """
    from ..core.fairness import jain_index

    if result.requesting is None:
        summary = result.summary or {}
        jain = summary.get("jain")
        if jain is None:
            raise ValueError(
                "jain_trajectory needs per-slot history or a streaming "
                "summary with the jain record; this result was produced "
                "with a reduced history mode (older summary format)"
            )
        return [float(v) for v in jain]
    out = []
    for t in range(result.slots):
        req = result.requesting[t]
        if bool(req.any()):
            out.append(jain_index(result.rates[t][req]))
        else:
            out.append(1.0)
    return out


def trace_section(events, extra=None) -> dict | None:
    """The ``trace`` section of a report: event count and ring drops.

    ``dropped`` comes from the ``trace.meta`` header among ``events``
    (:meth:`TraceBuffer.recorded` and ``read_jsonl(..., meta=True)``
    keep it).  This is the one place a drop becomes a warning: the
    section carries it and :func:`render_report` prints it.
    """
    if events is None:
        return None
    dropped = 0
    meta = analyze.trace_meta(events)
    if meta is not None:
        dropped = int(meta.get("dropped", 0))
    counted = sum(1 for e in events if e.name != TRACE_META)
    section = {"events": counted, "dropped": dropped}
    if extra:
        section.update(extra)
    if dropped:
        section["warning"] = (
            f"trace ring dropped {dropped} events; "
            "trace-derived series are incomplete"
        )
    return section


def _fairness_summary(jains, slots) -> dict:
    """Final / mean / min (and the slot of the min) of a Jain series."""
    lo = min(range(len(jains)), key=jains.__getitem__)
    return {
        "final": jains[-1],
        "mean": sum(jains) / len(jains),
        "min": jains[lo],
        "min_slot": slots[lo],
    }


def simulation_report(result, events=None) -> dict:
    """Fairness + goodput report for one simulation run (JSON-able).

    ``events`` — the trace recorded alongside the run, if any — only
    adds the ``trace`` section (event counts and the drop warning); all
    series come from the result arrays.
    """
    trajectory = jain_trajectory(result)
    n = result.n
    mean_rates = result.mean_download_bandwidth()
    mean_caps = result.mean_capacity()
    gamma = result.empirical_gamma()
    gains = result.gains_over_isolation()
    window = max(1, result.slots // 10)
    final_rates = result.window_mean_rates(result.slots - window, result.slots)
    extra = None
    if events is not None:
        extra = {"sim_slots": sum(1 for e in events if e.name == SIM_SLOT)}
    return {
        "kind": "simulation",
        "slots": result.slots,
        "peers": n,
        "slot_seconds": result.slot_seconds,
        "labels": [result.label_of(i) for i in range(n)],
        "fairness": {
            "trajectory": trajectory,
            **_fairness_summary(trajectory, range(len(trajectory))),
        },
        "goodput": {
            "mean_rate_kbps": [float(v) for v in mean_rates],
            "final_window_rate_kbps": [float(v) for v in final_rates],
            "final_window_slots": window,
            "mean_capacity_kbps": [float(v) for v in mean_caps],
            "empirical_gamma": [float(v) for v in gamma],
            "gain_over_isolation_kbps": [float(v) for v in gains],
            "total_mean_rate_kbps": float(mean_rates.sum()),
        },
        "trace": trace_section(events, extra),
    }


def _span_step(node) -> dict:
    return {
        "op": node.op,
        "attrs": node.attrs,
        "status": node.status,
        "duration_ns": node.duration_ns,
    }


def _span_tree(node) -> dict:
    return {**_span_step(node), "children": [_span_tree(c) for c in node.children]}


def _critical_path_section(forest) -> list[dict] | None:
    """The critical path of the longest download root, as JSON-able steps.

    A trace without a ``transfer.download`` span (a simulation) takes
    the longest root of any op instead.
    """
    roots = [r for r in forest if r.op == "transfer.download"] or forest
    if not roots:
        return None
    root = max(
        roots, key=lambda r: -1 if r.duration_ns is None else r.duration_ns
    )
    return [_span_step(node) for node in analyze.critical_path(root)]


def download_report(reports, sources, events=None) -> dict:
    """Aggregate report over one download's chunks (JSON-able).

    ``reports`` is a sequence of per-chunk ``DownloadReport`` objects
    (one entry for an unchunked download).  ``sources[c]`` names the
    source behind each session position of chunk ``c``: a chunk is
    fetched only from the sources that hold it, so positions are not
    source indices, and ``per_peer_bytes`` / ``failures[].peer`` are
    keyed by source.  With ``events`` the causal sections — critical
    path and per-peer time-in-state — are derived from the recorded
    trace.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("download_report needs at least one DownloadReport")
    per_peer = [0.0] * (max((i for s in sources for i in s), default=-1) + 1)
    failures = []
    for chunk, (r, chunk_sources) in enumerate(zip(reports, sources, strict=True)):
        for position, b in enumerate(r.per_peer_bytes):
            per_peer[chunk_sources[position]] += b
        for f in r.failures:
            failures.append(
                {"chunk": chunk, **f.to_dict(), "peer": chunk_sources[f.peer]}
            )
    total_bytes = sum(r.bytes_received for r in reports)
    total_seconds = sum(r.seconds for r in reports)
    out = {
        "kind": "download",
        "chunks": len(reports),
        "complete": all(r.complete for r in reports),
        "slots": sum(r.slots for r in reports),
        "seconds": total_seconds,
        "bytes_received": total_bytes,
        "wasted_bytes": sum(r.wasted_bytes for r in reports),
        "bytes_discarded": sum(r.bytes_discarded for r in reports),
        "messages": {
            "delivered": sum(r.messages_delivered for r in reports),
            "dependent": sum(r.messages_dependent for r in reports),
            "rejected": sum(r.messages_rejected for r in reports),
        },
        "per_peer_bytes": per_peer,
        "goodput_kbps": (
            total_bytes * 8.0 / 1000.0 / total_seconds if total_seconds else 0.0
        ),
        "failures": failures,
        "critical_path": None,
        "time_in_state": None,
        "trace": trace_section(events),
    }
    if events is not None:
        out["critical_path"] = _critical_path_section(
            analyze.build_span_forest(events)
        )
        out["time_in_state"] = analyze.time_in_state(events)
    return out


def trace_report(events) -> dict:
    """What ``repro trace analyze`` shows of a recorded trace (JSON-able).

    Sections: the span forest, the critical path (same root rule as
    :func:`download_report`), per-peer time-in-state, the fairness
    summary of the ``sim.slot`` timeline and the ``trace`` section.
    Pass the ``trace.meta`` header along (``read_jsonl(..., meta=True)``)
    so ring drops are reported.
    """
    events = list(events)
    forest = analyze.build_span_forest(events)
    timeline = analyze.fairness_timeline(events)
    fairness = None
    if timeline:
        fairness = {
            "slots": len(timeline),
            **_fairness_summary(
                [row["jain"] for row in timeline], [row["t"] for row in timeline]
            ),
        }
    return {
        "kind": "trace",
        "spans": [_span_tree(root) for root in forest],
        "critical_path": _critical_path_section(forest),
        "time_in_state": analyze.time_in_state(events),
        "fairness": fairness,
        "trace": trace_section(events),
    }


def _fmt(value: float, digits: int = 1) -> str:
    return f"{value:.{digits}f}"


def _render_fairness(fair: dict) -> str:
    return (
        f"  final {fair['final']:.4f}   mean {fair['mean']:.4f}   "
        f"min {fair['min']:.4f} @ slot {fair['min_slot']}"
    )


def _render_simulation(report: dict) -> str:
    good = report["goodput"]
    lines = [
        "== simulation report ==",
        f"slots: {report['slots']}   peers: {report['peers']}   "
        f"slot: {report['slot_seconds']} s",
        "fairness (Jain index over requesting users):",
        _render_fairness(report["fairness"]),
        "goodput (kbps):",
        f"  {'peer':<16} {'mean rate':>10} {'final rate':>10} "
        f"{'mean cap':>10} {'gamma':>6} {'gain':>8}",
    ]
    for i, label in enumerate(report["labels"]):
        lines.append(
            f"  {label:<16} {_fmt(good['mean_rate_kbps'][i]):>10} "
            f"{_fmt(good['final_window_rate_kbps'][i]):>10} "
            f"{_fmt(good['mean_capacity_kbps'][i]):>10} "
            f"{good['empirical_gamma'][i]:>6.2f} "
            f"{_fmt(good['gain_over_isolation_kbps'][i]):>8}"
        )
    lines.append(
        f"total mean rate: {_fmt(good['total_mean_rate_kbps'])} kbps "
        f"(final window: last {good['final_window_slots']} slots)"
    )
    return "\n".join(lines) + _render_trace_tail(report)


def _span_label(step: dict) -> str:
    attrs = ",".join(f"{k}={v}" for k, v in sorted(step["attrs"].items()))
    return f"{step['op']}[{attrs}]" if attrs else step["op"]


def _render_critical_path(steps: list[dict]) -> str:
    parts = []
    for step in steps:
        label = _span_label(step)
        if step["duration_ns"] is not None:
            label += f" ({step['duration_ns'] / 1e6:.2f} ms)"
        parts.append(label)
    return " -> ".join(parts)


def _render_causal(report: dict) -> list[str]:
    """The critical-path line and the time-in-state table, when present."""
    lines = []
    if report["critical_path"]:
        lines.append("critical path: " + _render_critical_path(report["critical_path"]))
    if report["time_in_state"]:
        lines.append("time in state:")
        lines.append(
            f"  {'peer':>4} {'active':>7} {'retry-wait':>10} "
            f"{'quarantined':>11} {'discarded':>9}  fault"
        )
        for peer, st in sorted(report["time_in_state"].items()):
            lines.append(
                f"  {peer:>4} {st['active_slots']:>7} "
                f"{st['retry_wait_slots']:>10} {st['quarantined_slots']:>11} "
                f"{st['discarded']:>9}  {st['fault'] or '-'}"
            )
    return lines


def _render_download(report: dict) -> str:
    msgs = report["messages"]
    lines = [
        "== download report ==",
        f"complete: {'yes' if report['complete'] else 'NO'}   "
        f"chunks: {report['chunks']}   slots: {report['slots']} "
        f"({_fmt(report['seconds'])} s)",
        f"bytes: {_fmt(report['bytes_received'])} received, "
        f"{_fmt(report['wasted_bytes'])} wasted, "
        f"{_fmt(report['bytes_discarded'])} discarded",
        f"messages: {msgs['delivered']} delivered / "
        f"{msgs['dependent']} dependent / {msgs['rejected']} rejected",
        f"goodput: {_fmt(report['goodput_kbps'], 2)} kbps",
        "per-peer bytes: "
        + "  ".join(
            f"{i}:{_fmt(b)}" for i, b in enumerate(report["per_peer_bytes"])
        ),
    ]
    if report["failures"]:
        lines.append("failures:")
        for f in report["failures"]:
            lines.append(
                f"  peer {f['peer']} {f['kind']} @ slot {f['slot']} — "
                f"{f['detail']} ({f['messages_discarded']} msgs, "
                f"{_fmt(f['bytes_discarded'])} B discarded)"
            )
    else:
        lines.append("failures: none")
    lines.extend(_render_causal(report))
    return "\n".join(lines) + _render_trace_tail(report)


def _render_span_node(node: dict, depth: int, lines: list[str]) -> None:
    dur = (
        f"{node['duration_ns'] / 1e6:.3f} ms"
        if node["duration_ns"] is not None
        else "unfinished"
    )
    lines.append(
        f"{'  ' * depth}{_span_label(node)}  {dur}  ({node['status'] or '...'})"
    )
    # Same-op sibling runs (e.g. 10 000 sim.step children) collapse into
    # an aggregate line after the first few, or the tree is unreadable.
    by_op: dict[str, list] = {}
    for child in node["children"]:
        by_op.setdefault(child["op"], []).append(child)
    for op, group in by_op.items():
        shown = group if len(group) <= 8 else group[:3]
        for child in shown:
            _render_span_node(child, depth + 1, lines)
        if len(group) > len(shown):
            rest = group[len(shown):]
            finished = [c["duration_ns"] for c in rest if c["duration_ns"] is not None]
            lines.append(
                f"{'  ' * (depth + 1)}... {len(rest)} more {op} span(s) "
                f"({sum(finished) / 1e6:.3f} ms)"
            )


def _span_count(node: dict) -> int:
    return 1 + sum(_span_count(child) for child in node["children"])


def _render_trace(report: dict) -> str:
    lines = ["== trace report =="]
    if report["spans"]:
        lines.append(f"spans ({sum(_span_count(r) for r in report['spans'])}):")
        for root in report["spans"]:
            _render_span_node(root, 1, lines)
    else:
        lines.append("no spans recorded (flat trace)")
    lines.extend(_render_causal(report))
    fair = report["fairness"]
    if fair:
        lines.append(
            f"fairness timeline: {fair['slots']} slot(s), "
            "Jain index over requesting users:"
        )
        lines.append(_render_fairness(fair))
    return "\n".join(lines) + _render_trace_tail(report)


def _render_trace_tail(report: dict) -> str:
    trace = report.get("trace")
    if trace is None:
        return "\n"
    tail = f"\ntrace: {trace['events']} events ({trace['dropped']} dropped)\n"
    if trace.get("warning"):
        tail += f"WARNING: {trace['warning']}\n"
    return tail


def render_report(report: dict) -> str:
    """Human rendering of a simulation, download or trace report."""
    kind = report.get("kind")
    if kind == "simulation":
        return _render_simulation(report)
    if kind == "download":
        return _render_download(report)
    if kind == "trace":
        return _render_trace(report)
    raise ValueError(f"not a run report: kind={kind!r}")


def _format_number(value: float) -> str:
    """Compact fixed-width-friendly number formatting."""
    if value != value:  # NaN
        return "nan"
    if float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):,}"
    if abs(value) >= 1000 or (value != 0 and abs(value) < 0.001):
        return f"{value:.4g}"
    return f"{value:.3f}"


def render_snapshot(snapshot: dict[str, dict], header: str = "metrics") -> str:
    """Format a :meth:`MetricsRegistry.snapshot` dict as aligned text.

    ``repro simulate --metrics`` and ``repro stats FILE`` print this; the
    snapshot itself is what ``--metrics-out`` writes as JSON.
    """
    lines = [f"--- {header} " + "-" * max(1, 60 - len(header))]
    if not snapshot:
        lines.append("(no metrics registered)")
        return "\n".join(lines)
    width = max(len(name) for name in snapshot)
    for name, state in snapshot.items():
        kind = state.get("kind", "?")
        if kind == "counter":
            detail = _format_number(state.get("value", 0.0))
        elif kind == "gauge":
            value = _format_number(state.get("value", 0.0))
            detail = value if state.get("set") else f"{value} (unset)"
        elif kind == "histogram":
            count = state.get("count", 0)
            if count:
                detail = (
                    f"count={_format_number(count)} "
                    f"mean={_format_number(state['mean'])} "
                    f"p50={_format_number(state['p50'])} "
                    f"p90={_format_number(state['p90'])} "
                    f"p99={_format_number(state['p99'])} "
                    f"max={_format_number(state['max'])}"
                )
            else:
                detail = "count=0"
        else:
            detail = repr(state)
        lines.append(f"{name.ljust(width)}  [{kind:9s}] {detail}")
    return "\n".join(lines)


def render_catalog(snapshot: dict[str, dict], events: tuple[str, ...]) -> str:
    """Format the metric + event inventory (``repro stats`` with no file)."""
    lines = ["registered metrics:"]
    if snapshot:
        width = max(len(name) for name in snapshot)
        for name, state in snapshot.items():
            lines.append(
                f"  {name.ljust(width)}  [{state.get('kind', '?'):9s}] "
                f"{state.get('description', '')}"
            )
    else:
        lines.append("  (none)")
    lines.append("trace events:")
    for event in events:
        lines.append(f"  {event}")
    return "\n".join(lines)
