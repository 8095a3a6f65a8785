"""One process, one workload: set up, measure, print one JSON line.

``run.py`` starts this file several times per run: all but the last only
set up and report how long that took, so ``setup_s`` is a median over fresh
processes (imports, field tables, RSA key generation, native-kernel load and
self-check, input generation, publishing the file a fetch reads or building
the ``Simulation``).  Nothing here is reached through ``src/repro``
internals: the workloads compose public calls only.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

from spans import Spans

#: Start of set-up.  numpy and repro are imported after this line, by
#: make_workload; only the interpreter and the stdlib imports above precede it.
_T0 = perf_counter()

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def make_workload(name: str, seed: int, spans: Spans, tmp: str):
    if name.startswith("sim_"):
        from simload import SimDense, SimSparse

        return {"sim_dense": SimDense, "sim_sparse": SimSparse}[name](seed, spans, tmp)
    from fetchload import BULK, FAULTY, ROWS, Fetch, Publish

    if name == "publish_bulk":
        return Publish(seed, spans, tmp, BULK)
    if name == "publish_rows":
        return Publish(seed, spans, tmp, ROWS)
    if name == "fetch_bulk":
        return Fetch(seed, spans, tmp, BULK, n_chunks=2, slots_per_chunk=10)
    if name == "fetch_rows":
        return Fetch(seed, spans, tmp, ROWS, n_chunks=4, slots_per_chunk=10)
    if name == "fetch_faulty":
        return Fetch(seed, spans, tmp, FAULTY, n_chunks=16, slots_per_chunk=8, faulty=True)
    raise SystemExit(f"unknown workload {name!r}")


class Samples:
    """What a set of rounds measured."""

    def __init__(self):
        self.raw_ms: list[float] = []  # operation times as measured
        self.norm_ms: list[float] = []  # the same, in reference-kernel time
        self.work = 0.0
        self.failed = 0
        self.wall = 0.0  # rounds only, without the reference kernel
        self.op_scale: dict[int, float] = {}  # span op id -> normalisation


def measure(workload, seconds: float, trace: bool = False) -> tuple[Samples, Samples]:
    """Closed loop, one client: rounds back to back for ``seconds``.

    Each round's operation times are also normalised by the reference
    kernel run right before and after it (see ``probes.ReferenceKernel``).
    With ``trace`` every second round is traced and kept apart, so the
    plain and the traced samples see the same machine drift.
    """
    from probes import REFERENCE_NOMINAL_MS, ReferenceKernel

    spans = workload.spans
    reference = ReferenceKernel()
    reference.ms()  # warm-up, discarded
    plain, traced = Samples(), Samples()
    start = perf_counter()
    before = reference.ms()
    rounds = 0
    while perf_counter() - start < seconds and not workload.exhausted():
        spans.enabled = trace and rounds % 2 == 1
        into = traced if spans.enabled else plain
        rounds += 1
        first_op = spans.op + 1
        round_start = perf_counter()
        ms, done, bad = workload.round()
        into.wall += perf_counter() - round_start
        spans.enabled = False
        after = reference.ms()
        scale = REFERENCE_NOMINAL_MS / ((before + after) / 2)
        before = after
        into.raw_ms += ms
        into.norm_ms += [m * scale for m in ms]
        into.op_scale.update(dict.fromkeys(range(first_op, spans.op + 1), scale))
        into.work += done
        into.failed += bad
    return plain, traced


def plain_run(workload, seconds: float) -> dict:
    """The end-to-end metrics, tracing off (``setup_s`` is added by run.py)."""
    plain, _ = measure(workload, seconds)
    # Peak memory: this process plus its largest waited-for child (the procs
    # engine's workers), which is why the workload is closed first.
    workload.close()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "correct": plain.failed == 0,
        "attempted": len(plain.raw_ms),
        "failed": plain.failed,
        "metrics": {
            "op_ms_p50": statistics.median(plain.norm_ms),
            "peak_rss_MiB": (own + children) / 1024.0,
        },
    }


def traced_run(workload, seconds: float, per_layer: list[str], trace_path: Path) -> dict:
    """Every per-layer metric, from alternating plain and traced rounds; a
    layer that does no work on this workload reads 0."""
    plain, traced = measure(workload, seconds * 0.8, trace=True)
    spans = workload.spans
    busy, count = spans.by_name(traced.op_scale)
    layer, identical = workload.layer_metrics(busy, count, len(traced.raw_ms))
    layer["harness.op_ms_raw_p50"] = statistics.median(plain.raw_ms)
    layer["harness.op_ms_raw_p90"] = statistics.quantiles(plain.raw_ms, n=10)[-1]
    layer["harness.work_per_s"] = plain.work / plain.wall
    layer["harness.trace_overhead_pct"] = (
        statistics.median(traced.norm_ms) / statistics.median(plain.norm_ms) - 1.0
    ) * 100.0
    if busy:
        layer["harness.unattributed_pct"] = busy["op"] / sum(busy.values()) * 100.0
    unknown = sorted(set(layer) - set(per_layer))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json per_layer: {unknown}")
    spans.write_jsonl(trace_path)
    failed = plain.failed + traced.failed
    return {
        "correct": identical and failed == 0,
        "attempted": len(plain.raw_ms) + len(traced.raw_ms),
        "failed": failed,
        "metrics": {name: float(layer.get(name, 0.0)) for name in per_layer},
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    with tempfile.TemporaryDirectory(dir=OUT / "tmp") as tmp:
        workload = make_workload(args.workload, args.seed, Spans(), tmp)
        try:
            workload.setup()
            out = {"setup_s": perf_counter() - _T0}
            if not args.setup_only:
                import numpy  # already loaded by the workload; after _T0 on purpose

                out["fingerprint"] = {"numpy": numpy.__version__, **workload.fingerprint()}
                workload.round()  # warm-up, discarded
                if args.trace:
                    out.update(traced_run(
                        workload, args.seconds, [m["name"] for m in spec["per_layer"]],
                        OUT / f"trace_{args.workload}.jsonl",
                    ))
                else:
                    out.update(plain_run(workload, args.seconds))
                out["metrics"] = {
                    k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()
                }
        finally:
            workload.close()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
