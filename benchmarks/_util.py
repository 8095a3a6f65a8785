"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it prints
the same rows/series the paper reports (so EXPERIMENTS.md can quote
them) and asserts the qualitative *shape* claims — who wins, by roughly
what factor, where crossovers fall.  Absolute timings are expected to
differ from the authors' 2006 NTL/C++ testbed.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import REGISTRY

__all__ = [
    "print_header",
    "print_table",
    "format_seconds",
    "attach_obs_snapshot",
    "metered",
    "median",
    "peak_rss_bytes",
    "usable_cores",
    "write_bench_json",
    "BENCH_SCHEMA",
    "REPO_ROOT",
]

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The one results-file schema: ``{"schema": 3, "results": {key: point}}``,
#: a point holding ``ns_per_op`` and ``samples`` plus whatever describes it
#: — the scale points of ``bench_sim_scaling.py`` add ``bytes_per_peer``
#: and ``peak_rss_bytes``, the procs ones ``workers`` and per-shard
#: ``shards`` (``[lo, hi, bytes_per_peer]`` triples).  The files are
#: reproduction output for people to read; no gate reads them back.
BENCH_SCHEMA = 3


def median(samples) -> float:
    """Median of a non-empty sample list (lower middle for even counts)."""
    ordered = sorted(samples)
    return ordered[(len(ordered) - 1) // 2]


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (Linux/macOS)."""
    import resource
    import sys

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux but bytes on macOS.
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


def usable_cores() -> int:
    """CPUs this process may run on (the affinity mask where there is one)."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS
        return os.cpu_count() or 1


def write_bench_json(filename: str, results: dict, merge: bool = True) -> Path:
    """Write (or merge into) a machine-readable results file at repo root.

    ``results`` maps point keys (e.g. ``"decode_p8_k64"``) to dicts with
    at least ``ns_per_op``.  With ``merge`` (the default) existing keys
    in the file are updated and unrelated keys preserved, so several
    benchmark modules can contribute to one file; the file's ``schema``
    becomes :data:`BENCH_SCHEMA` whatever it was.
    """
    path = REPO_ROOT / filename
    payload: dict = {"schema": BENCH_SCHEMA, "results": {}}
    if merge and path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing.get("results"), dict):
                payload["results"] = existing["results"]
        except (ValueError, OSError):
            pass
    payload["results"].update(results)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def attach_obs_snapshot(benchmark, key: str = "obs") -> dict:
    """Snapshot the metrics registry into a bench's JSON output.

    Stored under ``extra_info[key]``, so running with
    ``--benchmark-json`` gives every future perf PR regression-visible
    counters (mul calls, innovative/dependent splits, ...) for free.
    Returns the snapshot for inline assertions.
    """
    snapshot = REGISTRY.snapshot()
    benchmark.extra_info[key] = snapshot
    return snapshot


def metered(fn, *args, **kwargs):
    """Run ``fn`` once with observability enabled on a clean registry.

    Timing-sensitive measurements should run *before* this (the enabled
    path adds bookkeeping); use it to capture operation counts that the
    snapshot attaches to the bench output.
    """
    from repro.obs import observability

    with observability(reset=True):
        result = fn(*args, **kwargs)
    return result


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def print_table(columns: list[str], rows: list[list], widths: list[int] | None = None):
    """Minimal fixed-width table printer for benchmark reports."""
    if widths is None:
        widths = []
        for c, name in enumerate(columns):
            cell_width = max(
                [len(str(name))] + [len(str(r[c])) for r in rows] if rows else [len(str(name))]
            )
            widths.append(cell_width)
    header = "  ".join(str(n).rjust(w) for n, w in zip(columns, widths))
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))


def format_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 120:
        return f"{seconds:.2f}s"
    if seconds < 7200:
        return f"{seconds / 60:.1f}min"
    return f"{seconds / 3600:.1f}h"
