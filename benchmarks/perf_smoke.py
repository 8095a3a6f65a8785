"""CI perf-smoke: cheap probes vs the committed baselines.

Standalone (numpy only, no pytest): measures the decode median at a
single cheap operating point and the batched simulation engine's
per-slot time at n=128, compares ns/op against the committed
``BENCH_decode.json`` / ``BENCH_sim.json``, and fails when a regression
exceeds the budget (a generous 3x, so CI noise on shared runners does
not flap the job).  Five interleaved A/B probes need no baseline: the
process-sharded sim engine against the in-process one, the cost of
observability, streaming decode against block decode, an 8-peer publish
against eight single-peer publishes, and the compiled ``bit_matmul``
kernel against its numpy body.
Fresh ``BENCH_decode.smoke.json`` and ``BENCH_sim.smoke.json`` files
are always written next to the baselines for upload as CI artifacts.

Usage: ``PYTHONPATH=src python benchmarks/perf_smoke.py``
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The measured point: p=8, m=2^15 -> k=32 for the 1 MB payload.
P, M = 8, 1 << 15
REPS = 5
BUDGET = 3.0


def measure() -> float:
    from repro.rlnc import BlockDecoder, CodingParams, FileEncoder

    data = os.urandom(1 << 20)
    params = CodingParams(p=P, m=M)
    encoder = FileEncoder(params, secret=b"bench", file_id=1)
    source = encoder.source_matrix(data)
    ids = encoder.independent_ids(1)[0]
    messages = encoder.encode_ids(source, ids)
    decoder = BlockDecoder(params, encoder.coefficients)
    samples = []
    for _ in range(REPS):
        start = time.perf_counter()
        out = decoder.decode(messages)
        samples.append(time.perf_counter() - start)
        assert out == data
    samples.sort()
    return samples[(len(samples) - 1) // 2]


#: Sim probe: per-slot time of the batched engine on the scaling
#: benchmark's n=128 honest network (same methodology, fewer slots).
SIM_N = 128


def measure_sim() -> tuple[str, float]:
    import bench_sim_scaling

    key = f"sim_step_n{SIM_N}_batched"
    return key, bench_sim_scaling.seconds_per_slot(SIM_N, "batched")


#: Sparse probe: per-slot time of the sparse engine on the scaling
#: benchmark's cohort-structured population at n=8192 (CI-sized; the
#: committed n=100k point stays a bench-suite deliverable).
SPARSE_N = 8192


def measure_sim_sparse() -> tuple[str, float, float]:
    import bench_sim_scaling

    key = f"sim_step_n{SPARSE_N}_sparse"
    seconds, state_bytes = bench_sim_scaling.sparse_slot_stats(
        SPARSE_N, slots=48, reps=1
    )
    return key, seconds, state_bytes / SPARSE_N


#: Procs probe: the process-sharded engine (2 shards) against the
#: in-process sparse engine on the same n=8192 cohort population,
#: interleaved in this run, no committed baseline.  The gate is loose on
#: purpose — above PROCS_BUDGET x sparse is an IPC blow-up (a broken
#: barrier, a pickling regression), not a lost race on a shared runner.
#: The printed ratio is the evidence ROADMAP's "procs earns its place at
#: <= 0.9 x sparse or goes" verdict needs, collected on every CI run.
PROCS_SMOKE_WORKERS = 2
PROCS_BUDGET = 3.0
PROCS_REPS = 3


def measure_procs_ratio() -> tuple[str, float, int]:
    """``(key, procs seconds/slot, failures)``; fails above 3x sparse."""
    import bench_sim_scaling

    def slot_seconds(engine: str) -> float:
        workers = PROCS_SMOKE_WORKERS if engine == "procs" else None
        return bench_sim_scaling.sparse_slot_stats(
            SPARSE_N, slots=48, reps=1, engine=engine, workers=workers
        )[0]

    # The first forked simulation in a process also pays the workers'
    # cold first prefetch (tens of ms over 48 slots): not what is probed.
    slot_seconds("procs")
    samples = {"sparse": [], "procs": []}
    for rep in range(PROCS_REPS):
        for engine in ("sparse", "procs") if rep % 2 == 0 else ("procs", "sparse"):
            samples[engine].append(slot_seconds(engine))
    base, sharded = _median(samples["sparse"]), _median(samples["procs"])
    ratio = sharded / base
    key = f"sim_step_n{SPARSE_N}_procs_w{PROCS_SMOKE_WORKERS}"
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    print(f"procs vs sparse n={SPARSE_N}: sparse {base * 1e6:.0f} us/slot, "
          f"procs {PROCS_SMOKE_WORKERS} workers {sharded * 1e6:.0f} us/slot -> "
          f"ratio {ratio:.2f}x on {cores} usable cores "
          f"(budget {PROCS_BUDGET:.1f}x)")
    if ratio > PROCS_BUDGET:
        print(f"FAIL: procs costs {ratio:.2f}x > {PROCS_BUDGET:.1f}x the in-process "
              "sparse engine; is a barrier or a per-slot message broken?")
        return key, sharded, 1
    return key, sharded, 0


#: Repair probe: recombination throughput at the committed
#: ``BENCH_repair.json`` operating point (GF(2^16), m=2^12, 16 helpers
#: -> 8 fresh messages), reusing the bench module's own measurement.
def measure_repair() -> tuple[str, int]:
    import bench_repair

    key = (
        f"repair_recombine_p{bench_repair.P}_m{bench_repair.M}"
        f"_h{bench_repair.HELPERS}_c{bench_repair.COUNT}"
    )
    return key, bench_repair.recombine_ns_per_message()


#: Obs-overhead probe, enforcing the "<3% overhead" instrumentation
#: claim with a 5% CI budget: the decode + sim-slot-loop workload with
#: metrics AND tracing enabled may cost at most OVERHEAD_BUDGET times
#: the same workload with observability off.  On/off passes are
#: interleaved so machine drift hits both sides equally.
OVERHEAD_BUDGET = 1.05
OVERHEAD_REPS = 9


def _median(samples: list[float]) -> float:
    samples = sorted(samples)
    return samples[(len(samples) - 1) // 2]


def measure_obs_overhead() -> int:
    """Fail (1) when metrics+tracing cost >5% over the obs-off hot path."""
    from repro import obs
    from repro.rlnc import BlockDecoder, CodingParams, FileEncoder
    from repro.sim.scenarios import figure_5a

    # k=512: the decode is dominated by a long dense elimination whose
    # runtime is stable rep-to-rep, so the on/off ratio does not flap on
    # noisy shared runners the way a short decode's would.
    params = CodingParams(p=P, m=1 << 11)
    encoder = FileEncoder(params, secret=b"bench", file_id=2)
    data = os.urandom(params.file_bytes)
    source = encoder.source_matrix(data)
    ids = encoder.independent_ids(1)[0]
    messages = encoder.encode_ids(source, ids)

    def workload() -> None:
        decoder = BlockDecoder(params, encoder.coefficients)
        assert decoder.decode(messages) == data
        figure_5a(slots=40, seed=7)

    workload()  # warm caches and lazily-built kernels before timing
    # Interleave on/off reps so machine drift (frequency scaling,
    # co-tenants) hits both sides equally, then compare medians.
    off, on = [], []
    for _ in range(OVERHEAD_REPS):
        start = time.perf_counter()
        workload()
        off.append(time.perf_counter() - start)

        with obs.observability(tracing=True, reset=True):
            start = time.perf_counter()
            workload()
            on.append(time.perf_counter() - start)

    base, enabled = _median(off), _median(on)
    ratio = enabled / base
    print(f"obs overhead: off {base * 1e3:.1f} ms, metrics+tracing on "
          f"{enabled * 1e3:.1f} ms -> ratio {ratio:.3f}x "
          f"(budget {OVERHEAD_BUDGET:.2f}x)")
    if ratio > OVERHEAD_BUDGET:
        print(f"FAIL: observability costs {ratio:.3f}x > "
              f"{OVERHEAD_BUDGET:.2f}x budget on the decode + sim slot "
              "loop hot path")
        return 1
    return 0


#: Streaming-vs-block probe: ``ProgressiveDecoder`` works on ``2k``-wide
#: coefficient rows and ends with the block decode, so streaming 1 MiB in
#: may cost at most STREAMING_BUDGET times ``BlockDecoder.decode`` of the
#: same messages.  Eliminating payloads on arrival pays the decode twice
#: and measures 2.5x and 3.6x at these points.  No committed baseline:
#: the two decoders are interleaved, so machine drift hits both equally.
STREAMING_BUDGET = 1.3
STREAMING_REPS = 9
STREAMING_POINTS = ((32, 1 << 15), (8, 1 << 14))  # (p, m): k = 8 and k = 64


def measure_streaming_ratio() -> int:
    """Fail (1) when streaming decode costs >1.3x the block decode."""
    from repro.rlnc import BlockDecoder, CodingParams, FileEncoder, ProgressiveDecoder

    failures = 0
    data = os.urandom(1 << 20)
    for p, m in STREAMING_POINTS:
        params = CodingParams(p=p, m=m)
        encoder = FileEncoder(params, secret=b"bench", file_id=3)
        messages = encoder.encode_ids(
            encoder.source_matrix(data), encoder.independent_ids(1)[0]
        )
        step = params.k // 8

        def block() -> bytes:
            return BlockDecoder(params, encoder.coefficients).decode(messages)

        def streaming() -> bytes:
            decoder = ProgressiveDecoder(params, encoder.coefficients)
            for i in range(0, len(messages), step):
                decoder.offer_many(messages[i : i + step])
            return decoder.result()

        assert block() == data and streaming() == data  # and warm the kernels
        block_s, streaming_s = [], []
        for rep in range(STREAMING_REPS):
            order = (block, streaming) if rep % 2 == 0 else (streaming, block)
            for decode in order:
                start = time.perf_counter()
                decode()
                elapsed = time.perf_counter() - start
                (block_s if decode is block else streaming_s).append(elapsed)
        base, streamed = _median(block_s), _median(streaming_s)
        ratio = streamed / base
        print(f"streaming decode p={p} k={params.k}: block {base * 1e3:.1f} ms, "
              f"progressive {streamed * 1e3:.1f} ms -> ratio {ratio:.2f}x "
              f"(budget {STREAMING_BUDGET:.1f}x)")
        if ratio > STREAMING_BUDGET:
            print(f"FAIL: progressive decode at p={p} k={params.k} costs "
                  f"{ratio:.2f}x > {STREAMING_BUDGET:.1f}x the block decode; "
                  "is payload elimination back in offer()?")
            failures += 1
    return failures


#: Publish probe: ``encode_bundles`` packs the source, builds the
#: four-Russians tables and screens ids once per chunk, so encoding a
#: chunk for 8 peers may cost at most PUBLISH_BUDGET times eight
#: single-peer encodes of the same chunk (the same 64 ids either way).
#: Paying the source set-up once per peer measures ~1.0x.  No committed
#: baseline: both sides are interleaved.
PUBLISH_BUDGET = 0.8
PUBLISH_REPS = 9
PUBLISH_POINT = (32, 1 << 15)  # (p, m): k = 8
PUBLISH_PEERS = 8


def measure_publish_ratio() -> int:
    """Fail (1) when an 8-peer publish costs >0.8x eight 1-peer publishes."""
    from repro.rlnc import CodingParams, FileEncoder

    p, m = PUBLISH_POINT
    params = CodingParams(p=p, m=m)
    data = os.urandom(1 << 20)

    def stacked():
        # A fresh encoder per call: coefficient rows are generated inside
        # the timed region on both sides.
        encoder = FileEncoder(params, secret=b"bench", file_id=4)
        return encoder.encode_bundles(data, PUBLISH_PEERS).bundles

    def per_peer():
        encoder = FileEncoder(params, secret=b"bench", file_id=4)
        bundles, start_id = [], 0
        for _ in range(PUBLISH_PEERS):
            bundles += encoder.encode_bundles(data, 1, start_id=start_id).bundles
            start_id = bundles[-1][-1].message_id + 1
        return tuple(bundles)

    def wire(bundles):
        return [msg.to_bytes() for bundle in bundles for msg in bundle]

    assert wire(stacked()) == wire(per_peer())  # and warm the kernels
    stacked_s, per_peer_s = [], []
    for rep in range(PUBLISH_REPS):
        order = (stacked, per_peer) if rep % 2 == 0 else (per_peer, stacked)
        for encode in order:
            start = time.perf_counter()
            encode()
            elapsed = time.perf_counter() - start
            (stacked_s if encode is stacked else per_peer_s).append(elapsed)
    base, once = _median(per_peer_s), _median(stacked_s)
    ratio = once / base
    print(f"publish p={p} k={params.k}: {PUBLISH_PEERS} x 1-peer encodes "
          f"{base * 1e3:.1f} ms, one {PUBLISH_PEERS}-peer encode "
          f"{once * 1e3:.1f} ms -> ratio {ratio:.2f}x "
          f"(budget {PUBLISH_BUDGET:.1f}x)")
    if ratio > PUBLISH_BUDGET:
        print(f"FAIL: encode_bundles(n_peers={PUBLISH_PEERS}) costs {ratio:.2f}x > "
              f"{PUBLISH_BUDGET:.1f}x eight single-peer encodes; is the source "
              "packed (or the tables built) once per bundle again?")
        return 1
    return 0


#: The compiled GF(2^p) kernel exists to be several times faster than the
#: numpy body it stands in for; it measures 8-9x at the paper's point on
#: the development box, so 0.5x leaves room for any runner.  Skipped, with
#: the loader's reason, where the kernel is not live.  No committed
#: baseline: both sides are interleaved.
NATIVE_MATMUL_BUDGET = 0.5
NATIVE_MATMUL_REPS = 9
NATIVE_MATMUL_POINT = (32, 8, 1 << 15)  # (p, k, m)
NATIVE_MATMUL_ROWS = (8, 64)  # a decode (r = k) and an 8-peer publish (r = 8k)


def measure_native_matmul_ratio() -> int:
    """Fail (1) when the compiled ``bit_matmul`` costs >0.5x the numpy one."""
    from unittest import mock

    import numpy as np

    from repro import native
    from repro.gf import GF, bitmatmul

    kernel = bitmatmul.load()
    if kernel is None:
        print(f"native matmul: kernel not live ({native.status()['gfmul']}); skipped")
        return 0
    p, k, m = NATIVE_MATMUL_POINT
    field = GF(p)
    rng = np.random.default_rng(0)
    source = field.random((k, m), rng)
    numpy_only = mock.patch.dict(native._LOADED, {"gfmul": (None, "perf smoke A/B")})
    failures = 0
    for r in NATIVE_MATMUL_ROWS:
        coeffs = field.random((r, k), rng)

        def compiled():
            return bitmatmul.bit_matmul(field, coeffs, source)

        def fallback():
            with numpy_only:
                return bitmatmul.bit_matmul(field, coeffs, source)

        assert compiled().tobytes() == fallback().tobytes()  # and warm both
        compiled_s, fallback_s = [], []
        for rep in range(NATIVE_MATMUL_REPS):
            order = (compiled, fallback) if rep % 2 == 0 else (fallback, compiled)
            for product in order:
                start = time.perf_counter()
                product()
                elapsed = time.perf_counter() - start
                (compiled_s if product is compiled else fallback_s).append(elapsed)
        base, fast = _median(fallback_s), _median(compiled_s)
        ratio = fast / base
        print(f"bit_matmul p={p} ({r},{k})@({k},{m}): numpy {base * 1e3:.1f} ms, "
              f"native {fast * 1e3:.1f} ms -> ratio {ratio:.2f}x "
              f"(budget {NATIVE_MATMUL_BUDGET:.1f}x)")
        if ratio > NATIVE_MATMUL_BUDGET:
            print(f"FAIL: the compiled kernel costs {ratio:.2f}x > "
                  f"{NATIVE_MATMUL_BUDGET:.1f}x the numpy body at r={r}; did the "
                  "-O3 -march=native build fail over to -O2, or a loop stop "
                  "vectorising?")
            failures += 1
    return min(failures, 1)


def _compare(baseline_name: str, key: str, ns_per_op: int) -> int:
    """Return 1 when ``key`` regressed past BUDGET vs the baseline file."""
    baseline_path = REPO_ROOT / baseline_name
    if not baseline_path.exists():
        print(f"no committed {baseline_name} baseline; skipping comparison")
        return 0
    baseline = json.loads(baseline_path.read_text())
    point = baseline.get("results", {}).get(key)
    if point is None:
        print(f"baseline has no point {key}; skipping comparison")
        return 0
    ratio = ns_per_op / point["ns_per_op"]
    print(f"baseline {key}: {point['ns_per_op']} ns/op -> ratio {ratio:.2f}x "
          f"(budget {BUDGET:.1f}x)")
    if ratio > BUDGET:
        print(f"FAIL: {key} regressed {ratio:.2f}x > {BUDGET:.1f}x budget")
        return 1
    return 0


def main() -> int:
    from repro.rlnc import CodingParams

    k = CodingParams(p=P, m=M).k
    key = f"decode_p{P}_k{k}"
    seconds = measure()
    ns_per_op = int(seconds * 1e9)
    fresh = {
        "schema": 1,
        "results": {
            key: {"p": P, "k": k, "m": M, "op": "decode_1MB",
                  "ns_per_op": ns_per_op, "samples": REPS}
        },
    }
    out_path = REPO_ROOT / "BENCH_decode.smoke.json"
    out_path.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    print(f"measured {key}: {ns_per_op} ns/op ({seconds * 1e3:.1f} ms); "
          f"wrote {out_path.name}")
    failures = _compare("BENCH_decode.json", key, ns_per_op)

    sim_key, sim_seconds = measure_sim()
    sim_ns = int(sim_seconds * 1e9)
    sparse_key, sparse_seconds, sparse_bpp = measure_sim_sparse()
    sparse_ns = int(sparse_seconds * 1e9)
    procs_key, procs_seconds, procs_failed = measure_procs_ratio()
    procs_ns = int(procs_seconds * 1e9)
    sim_fresh = {
        "schema": 3,
        "results": {
            sim_key: {"n": SIM_N, "engine": "batched", "op": "sim_step",
                      "ns_per_op": sim_ns, "samples": 1},
            sparse_key: {"n": SPARSE_N, "engine": "sparse", "op": "sim_step",
                         "ns_per_op": sparse_ns,
                         "bytes_per_peer": round(sparse_bpp, 1),
                         "samples": 1},
            procs_key: {"n": SPARSE_N, "engine": "procs", "op": "sim_step",
                        "workers": PROCS_SMOKE_WORKERS,
                        "ns_per_op": procs_ns, "samples": PROCS_REPS},
        },
    }
    sim_path = REPO_ROOT / "BENCH_sim.smoke.json"
    sim_path.write_text(json.dumps(sim_fresh, indent=2, sort_keys=True) + "\n")
    print(f"measured {sim_key}: {sim_ns} ns/op ({sim_seconds * 1e6:.0f} us/slot); "
          f"wrote {sim_path.name}")
    failures += _compare("BENCH_sim.json", sim_key, sim_ns)
    print(f"measured {sparse_key}: {sparse_ns} ns/op "
          f"({sparse_seconds * 1e6:.0f} us/slot, "
          f"{sparse_bpp:.0f} B/peer of engine state)")
    failures += _compare("BENCH_sim.json", sparse_key, sparse_ns)
    failures += procs_failed

    repair_key, repair_ns = measure_repair()
    repair_fresh = {
        "schema": 1,
        "results": {
            repair_key: {"op": "recombine_per_message",
                         "ns_per_op": repair_ns, "samples": 1}
        },
    }
    repair_path = REPO_ROOT / "BENCH_repair.smoke.json"
    repair_path.write_text(json.dumps(repair_fresh, indent=2, sort_keys=True) + "\n")
    print(f"measured {repair_key}: {repair_ns} ns/op; wrote {repair_path.name}")
    failures += _compare("BENCH_repair.json", repair_key, repair_ns)

    failures += measure_obs_overhead()
    failures += measure_streaming_ratio()
    failures += measure_publish_ratio()
    failures += measure_native_matmul_ratio()

    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
