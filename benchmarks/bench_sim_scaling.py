"""Slot-loop scaling — batched and sparse engines vs the reference loop.

The reference engine walks peers one by one per slot, so its cost grows
like ``n`` python-level allocator calls plus ``n`` ledger updates; the
batched engine computes the whole ``n x n`` allocation matrix in a few
vectorised (or native) passes.  Both produce bit-identical results (the
equivalence suite in ``tests/sim/test_engine_batched.py`` enforces it);
this benchmark pins down the speedup across network sizes and records
the per-slot medians in ``BENCH_sim.json`` (reproduction output: compare
two checkouts on one box with ``bench/run.py --compare``, not a fresh
run against the committed file).

The sparse engine (PR 8) drops the dense ``(n, n)`` state entirely:
per-peer CSR-style ledger rows plus active-set allocation make per-slot
cost scale with the requesting cohort, not the population.  Its scale
points (the cohort-structured :func:`repro.sim.sparse_population_sim`
workload at n=8192 and n=100000, and the million-peer smoke) record
``bytes_per_peer`` and ``peak_rss_bytes`` alongside ``ns_per_op``.

Shape claims asserted:

* >= 10x per-slot speedup at n=1024 (the tentpole target);
* no regression at n=16 (the batched engine must not lose on the small
  networks every paper scenario uses);
* sparse engine state stays under 4 KiB/peer at n=100000 (the dense
  credit matrix alone would be 800 KiB/peer);
* the million-peer smoke finishes within its documented memory cap.
"""

import time

from repro.core.allocation import PeerwiseProportionalAllocator
from repro.native import usable_cpus
from repro.sim import AlwaysOn, PeerConfig, Simulation

from _util import (
    format_seconds,
    median,
    peak_rss_bytes,
    print_header,
    print_table,
    write_bench_json,
)

SIZES = (16, 128, 1024)
#: Slots timed per run — scaled down as n grows to keep the reference
#: engine's wall time reasonable.
SLOTS = {16: 2000, 128: 300, 1024: 25}
REPS = 3


def _configs(n: int) -> list[PeerConfig]:
    """Honest saturated network with heterogeneous capacities."""
    return [
        PeerConfig(
            capacity=100.0 + (i % 32) * 25.0,
            demand=AlwaysOn(),
            allocator=PeerwiseProportionalAllocator(),
            label=f"peer {i}",
        )
        for i in range(n)
    ]


def seconds_per_slot(
    n: int, engine: str, slots: int | None = None, reps: int = REPS
) -> float:
    """Median per-slot wall time of the step() loop for one engine."""
    slots = SLOTS[n] if slots is None else slots
    samples = []
    for _ in range(reps):
        sim = Simulation(_configs(n), seed=7, engine=engine)
        start = time.perf_counter()
        for _ in range(slots):
            sim.step()
        samples.append((time.perf_counter() - start) / slots)
    return median(samples)


def test_batched_engine_scaling(benchmark):
    def run_grid():
        return {
            (n, engine): seconds_per_slot(n, engine)
            for n in SIZES
            for engine in ("reference", "batched")
        }

    timings = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    backend = Simulation(_configs(2), engine="batched").backend

    print_header(f"Slot-loop scaling: reference vs batched ({backend})")
    rows = []
    results = {}
    for n in SIZES:
        ref, fast = timings[(n, "reference")], timings[(n, "batched")]
        speedup = ref / fast
        rows.append(
            [n, format_seconds(ref), format_seconds(fast), f"{speedup:.1f}x"]
        )
        for engine, secs in (("reference", ref), ("batched", fast)):
            results[f"sim_step_n{n}_{engine}"] = {
                "n": n,
                "engine": engine,
                "op": "sim_step",
                "ns_per_op": int(secs * 1e9),
                "samples": REPS,
            }
    print_table(["n", "ref/slot", "batched/slot", "speedup"], rows)

    path = write_bench_json("BENCH_sim.json", results)
    print(f"\nbackend: {backend}; wrote {path.name}")

    assert timings[(1024, "reference")] / timings[(1024, "batched")] >= 10.0
    # No small-n regression (0.8 leaves margin for timer noise).
    assert timings[(16, "reference")] / timings[(16, "batched")] >= 0.8


#: Sparse scale points: n -> timed slots of the cohort-structured
#: population (64 request cohorts, 16 dedicated givers).
SPARSE_POINTS = {8192: 96, 100_000: 32}
SPARSE_COHORTS = 64
SPARSE_GIVERS = 16
SPARSE_REPS = 3


def sparse_slot_stats(
    n: int,
    slots: int | None = None,
    reps: int = SPARSE_REPS,
    engine: str = "sparse",
    workers: int | None = None,
):
    """``(median per-slot seconds, engine state bytes, shard stats)``.

    Times whole ``run(history="none")`` passes (the engine's fast path
    — ``step()`` would materialise a dense allocation matrix for its
    return value) on fresh simulations, so ledger growth is included.
    Any engine; ``workers`` goes with ``"procs"``, and only the two
    shard engines have shard stats (``[]`` otherwise).
    """
    from repro.sim import sparse_population_sim

    slots = SPARSE_POINTS.get(n, 32) if slots is None else slots
    samples = []
    state_bytes, shards = 0, []
    for _ in range(reps):
        sim = sparse_population_sim(
            n=n,
            cohorts=SPARSE_COHORTS,
            givers=SPARSE_GIVERS,
            slots=slots,
            seed=7,
            engine=engine,
            workers=workers,
        )
        with sim:
            start = time.perf_counter()
            sim.run(slots, history="none")
            samples.append((time.perf_counter() - start) / slots)
            state_bytes, shards = sim.memory_bytes(), sim.shard_stats()
    return median(samples), state_bytes, shards


def test_sparse_engine_scale_points(benchmark):
    def run_points():
        return {n: sparse_slot_stats(n) for n in sorted(SPARSE_POINTS)}

    stats = benchmark.pedantic(run_points, rounds=1, iterations=1)
    rss = peak_rss_bytes()
    backend = Simulation(_configs(2), engine="sparse").backend

    print_header(f"Sparse engine scale points ({backend})")
    rows = []
    results = {}
    for n, (secs, state_bytes, _) in stats.items():
        per_peer = state_bytes / n
        rows.append(
            [n, format_seconds(secs), f"{per_peer:.0f}", f"{rss >> 20}MiB"]
        )
        results[f"sim_step_n{n}_sparse"] = {
            "n": n,
            "engine": "sparse",
            "op": "sim_step",
            "ns_per_op": int(secs * 1e9),
            "bytes_per_peer": round(per_peer, 1),
            "peak_rss_bytes": rss,
            "samples": SPARSE_REPS,
        }
    print_table(["n", "sparse/slot", "state B/peer", "peak rss"], rows)

    path = write_bench_json("BENCH_sim.json", results)
    print(f"\nbackend: {backend}; wrote {path.name}")

    # The dense engines need 8n bytes/peer of credit matrix alone
    # (800 KiB/peer at n=100k); the sparse ledgers must stay O(partners).
    assert stats[100_000][1] / 100_000 < 4096
    # Per-slot cost tracks the active cohort, not n: generous absolute
    # budget so shared-runner noise cannot flap the job.
    assert stats[100_000][0] < 0.25


#: Procs scale point and its worker counts: the n=100k cohort
#: population, sharded 1- and 4-way, against the in-process sparse engine.
PROCS_N = 100_000
PROCS_WORKERS = (1, 4)


def test_procs_engine_scale_points(benchmark):
    """The process-sharded engine at n=100k, interleaved with sparse.

    Records ``sim_step_n100000_procs_w{W}`` entries with the ``workers``
    and per-shard ``shards`` columns and prints each procs-W / sparse
    ratio with the usable core count — the evidence ROADMAP's "procs
    earns its place at <= 0.9 x sparse on >= 4 cores, or goes" verdict
    asks for.  Who wins is reported, not asserted.
    """
    engines = (None, *PROCS_WORKERS)  # None: the in-process sparse engine

    def run_points():
        runs = {w: [] for w in engines}
        for rep in range(SPARSE_REPS):
            for w in engines if rep % 2 == 0 else reversed(engines):
                runs[w].append(
                    sparse_slot_stats(
                        PROCS_N, reps=1, engine="procs" if w else "sparse", workers=w
                    )
                )
        return {
            w: (median(secs for secs, _, _ in stats), stats[-1][2])
            for w, stats in runs.items()
        }

    stats = benchmark.pedantic(run_points, rounds=1, iterations=1)
    sparse_secs = stats.pop(None)[0]
    with Simulation(_configs(2), engine="procs", workers=1) as probe:
        backend = probe.backend
    rows = [["sparse", format_seconds(sparse_secs), "1.00x", "-"]]
    results = {}
    for w, (secs, shards) in stats.items():
        per_shard = [
            [s["lo"], s["hi"], round(s["memory_bytes"] / (s["hi"] - s["lo"]), 1)]
            for s in shards
        ]
        worst = max(b for _, _, b in per_shard)
        rows.append(
            [f"procs-{w}", format_seconds(secs), f"{secs / sparse_secs:.2f}x", f"{worst:.0f}"]
        )
        results[f"sim_step_n{PROCS_N}_procs_w{w}"] = {
            "n": PROCS_N,
            "engine": "procs",
            "op": "sim_step",
            "workers": w,
            "ns_per_op": int(secs * 1e9),
            "shards": per_shard,
            "samples": SPARSE_REPS,
        }
    print_header(
        f"Procs vs sparse at n={PROCS_N} ({backend}, {usable_cpus()} usable cores)"
    )
    print_table(["engine", "per slot", "/ sparse", "worst shard B/peer"], rows)
    path = write_bench_json("BENCH_sim.json", results)
    print(f"wrote {path.name}")

    # Shard state stays O(partners) per peer on every shard.
    for _, shards in stats.values():
        for s in shards:
            assert s["memory_bytes"] / (s["hi"] - s["lo"]) < 4096


#: Churn bench: four giver generations, eviction age in feedback flushes.
CHURN_KW = dict(
    n=100_000, cohorts=64, givers_per_phase=16, phases=4, phase_slots=16,
    seed=7, engine="sparse",
)


def test_churn_eviction_bounds_ledger_growth(benchmark):
    """Row eviction keeps bytes/peer bounded by the *live* giver set."""
    from repro.sim import sparse_population_churn

    def run_pair():
        out = {}
        for label, evict_age in (("none", None), ("age4", 4)):
            sim = sparse_population_churn(evict_age=evict_age, **CHURN_KW)
            slots = CHURN_KW["phases"] * CHURN_KW["phase_slots"]
            start = time.perf_counter()
            sim.run(slots, history="none")
            (ledger,) = sim.shard_stats()
            out[label] = {
                "seconds_per_slot": (time.perf_counter() - start) / slots,
                "bytes_per_peer": sim.memory_bytes() / CHURN_KW["n"],
                "entries": ledger["entries"],
                "evicted": ledger["evicted"],
            }
        return out

    out = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print_header("Giver churn: ledger growth with and without eviction")
    print_table(
        ["eviction", "per slot", "state B/peer", "entries", "evicted"],
        [
            [label, format_seconds(d["seconds_per_slot"]),
             f"{d['bytes_per_peer']:.0f}", d["entries"], d["evicted"]]
            for label, d in out.items()
        ],
    )
    results = {
        f"sim_churn_n{CHURN_KW['n']}_evict_{label}": {
            "n": CHURN_KW["n"],
            "engine": "sparse",
            "op": "sim_churn",
            "ns_per_op": int(d["seconds_per_slot"] * 1e9),
            "bytes_per_peer": round(d["bytes_per_peer"], 1),
            "samples": 1,
        }
        for label, d in out.items()
    }
    path = write_bench_json("BENCH_sim.json", results)
    print(f"wrote {path.name}")

    assert out["age4"]["evicted"] > 0
    assert out["age4"]["entries"] < out["none"]["entries"]
    # Bounded by the live generation: under half the no-eviction state,
    # which holds all four generations' dead entries.
    assert out["age4"]["bytes_per_peer"] < out["none"]["bytes_per_peer"]


def test_million_peer_smoke(benchmark):
    from repro.sim import million_peer_smoke

    def run():
        start = time.perf_counter()
        result = million_peer_smoke()
        result["wall_seconds"] = time.perf_counter() - start
        return result

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Million-peer smoke (sparse engine)")
    print_table(
        ["n", "slots", "backend", "state B/peer", "peak rss", "cap"],
        [[
            out["n"],
            out["slots"],
            out["backend"],
            f"{out['bytes_per_peer']:.0f}",
            f"{out['peak_rss_bytes'] >> 20}MiB",
            f"{out['memory_cap_bytes'] >> 30}GiB",
        ]],
    )
    results = {
        "sim_smoke_n1000000_sparse": {
            "n": out["n"],
            "engine": "sparse",
            "op": "sim_smoke",  # whole build + 4-slot run; memory is the budget
            "ns_per_op": int(out["wall_seconds"] * 1e9),
            "bytes_per_peer": round(out["bytes_per_peer"], 1),
            "peak_rss_bytes": out["peak_rss_bytes"],
            "samples": 1,
        }
    }
    path = write_bench_json("BENCH_sim.json", results)
    print(f"wrote {path.name}")
    assert out["within_cap"], (
        f"million-peer smoke peak RSS {out['peak_rss_bytes']} exceeds "
        f"the documented cap {out['memory_cap_bytes']}"
    )


def test_million_peer_smoke_procs(benchmark):
    from repro.sim import million_peer_smoke

    def run():
        start = time.perf_counter()
        result = million_peer_smoke(engine="procs", workers=4)
        result["wall_seconds"] = time.perf_counter() - start
        return result

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Million-peer smoke (procs engine, 4 shards)")
    print_table(
        ["n", "slots", "backend", "workers", "state B/peer", "peak rss"],
        [[
            out["n"],
            out["slots"],
            out["backend"],
            out["workers"],
            f"{out['bytes_per_peer']:.0f}",
            f"{out['peak_rss_bytes'] >> 20}MiB",
        ]],
    )
    results = {
        "sim_smoke_n1000000_procs": {
            "n": out["n"],
            "engine": "procs",
            "op": "sim_smoke",
            "workers": out["workers"],
            "ns_per_op": int(out["wall_seconds"] * 1e9),
            "bytes_per_peer": round(out["bytes_per_peer"], 1),
            "peak_rss_bytes": out["peak_rss_bytes"],
            "samples": 1,
        }
    }
    path = write_bench_json("BENCH_sim.json", results)
    print(f"wrote {path.name}")
    assert out["backend"].startswith("procs")
    assert out["within_cap"], (
        f"procs million-peer smoke peak RSS {out['peak_rss_bytes']} "
        f"exceeds the documented cap {out['memory_cap_bytes']}"
    )
