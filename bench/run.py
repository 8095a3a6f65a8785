#!/usr/bin/env python3
"""The repository's benchmark: the fetch path and the slot simulator.

One workload, as the acceptance driver runs it (last stdout line is the
result object)::

    python3 bench/run.py --workload fetch_bulk --seed 1 --seconds 8 --trace 0

Every workload, each in fresh processes, with a table of every metric and a
result file under ``bench/out/``::

    python3 bench/run.py [--seed N] [--repeats R] [--quick] [--out FILE]

Two result files against the bounds in ``BENCHMARK.json``::

    python3 bench/run.py --compare A.json B.json

See ``bench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Fresh processes whose set-up time is taken per run; setup_s is their median.
SETUPS = 3


def worker_env() -> dict[str, str]:
    """Everything a worker reads or writes stays inside the checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"{ROOT / 'src' / 'repro'} not found: nothing to benchmark")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["REPRO_NATIVE_CACHE"] = str(OUT / "native")
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def worker(env, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def build_native(env) -> None:
    """Compile the simulator's C kernels once, outside any timed set-up."""
    if any((OUT / "native").glob("*.so")):
        return
    subprocess.run(
        [sys.executable, "-c", "from repro.sim import fastpath; fastpath.load()"],
        env=env, check=True,
    )


def run_workload(name: str, seed: int, seconds: float, trace: int, setups: int = SETUPS) -> dict:
    """One run: ``setups - 1`` set-up-only processes, then the measuring one."""
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    env = worker_env()
    if name.startswith("sim_"):
        build_native(env)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setup_s = [worker(env, *args, "--setup-only")["setup_s"] for _ in range(setups - 1)]
    result = worker(env, *args)
    setup_s.append(result.pop("setup_s"))
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    return result


# -- every workload, with a table and a result file ---------------------------


def fingerprint() -> dict:
    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "REPRO_NO_NATIVE": os.environ.get("REPRO_NO_NATIVE", ""),
        "REPRO_SIM_THREADS": os.environ.get("REPRO_SIM_THREADS", ""),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_suite(args) -> int:
    seconds = 1.0 if args.quick else float(SPEC["run_seconds"])
    repeats = 1 if args.quick else args.repeats
    setups = 1 if args.quick else SETUPS
    names = [args.workload] if args.workload else WORKLOADS
    out = {
        "schema": 1, "seed": args.seed, "seconds": seconds, "repeats": repeats,
        "fingerprint": fingerprint(), "workloads": {},
    }
    failed_ops = 0
    for name in names:
        runs = [run_workload(name, args.seed, seconds, 0, setups) for _ in range(repeats)]
        traced = run_workload(name, args.seed, seconds, 1)
        entry = out["workloads"][name] = {
            # numpy version, which engine auto chose and how many workers:
            # two result sets that differ here measure different programs
            "fingerprint": runs[0]["fingerprint"],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": {
                m["name"]: [r["metrics"][m["name"]]["value"] for r in runs]
                for m in SPEC["end_to_end"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        failed_ops += entry["failed"] + (not entry["correct"])
        print(f"\n{name}  {entry['fingerprint'] or ''}  "
              f"ops {entry['attempted']}  failed {entry['failed']}  correct {entry['correct']}")
        print(f"  {'metric':<40}{'unit':>7}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
        for m in SPEC["end_to_end"]:
            values = entry["end_to_end"][m["name"]]
            q1, q2, q3 = quartiles(values)
            print(f"  {m['name']:<40}{m['unit']:>7}{q2:>14.4f}{q1:>14.4f}{q3:>14.4f}{len(values):>4}")
        for m in SPEC["per_layer"]:
            value = entry["per_layer"][m["name"]]
            if value:
                print(f"  {m['name']:<40}{m['unit']:>7}{value:>14.4f}{'':>14}{'':>14}{1:>4}")
    path = Path(args.out) if args.out else OUT / f"result_{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"\nwrote {path}")
    return 1 if failed_ops else 0


# -- two result files against the bounds ---------------------------------------


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    status = 0
    for name in WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        if wa["fingerprint"] != wb["fingerprint"]:
            raise SystemExit(
                f"{name}: refusing to compare {wa['fingerprint']} with {wb['fingerprint']}: "
                "a different numpy, backend or engine is a different program"
            )
        print(f"\n{name}")
        print(f"  {'metric':<16}{'A median [q1, q3]':>38}{'B median [q1, q3]':>38}"
              f"{'worse by':>10}{'bound':>7}  verdict")
        for m in SPEC["end_to_end"]:
            va, vb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            (a1, a2, a3), (b1, b2, b3) = quartiles(va), quartiles(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (b2 - a2) / a2
            spread = max(a3 - a1, b3 - b1) / a2
            b_always_better = max(sign * v for v in vb) < min(sign * v for v in va)
            if worse > m["bound"]:
                verdict = "regressed"
                status = 1
            elif spread > m["bound"] and not b_always_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {m['name']:<16}{f'{a2:.4f} [{a1:.4f}, {a3:.4f}]':>38}"
                  f"{f'{b2:.4f} [{b1:.4f}, {b3:.4f}]':>38}{worse:>+10.1%}{m['bound']:>7.0%}  {verdict}")
        # Counts repeat exactly for one seed, so they compare with ==.
        if a["seed"] == b["seed"]:
            for m in SPEC["per_layer"]:
                ca, cb = wa["per_layer"][m["name"]], wb["per_layer"][m["name"]]
                if m["unit"] in ("count", "ratio", "B") and ca != cb:
                    print(f"  {m['name']:<40} count differs: {ca!r} != {cb!r}")
        if wa["failed"] != wb["failed"]:
            print(f"  failed operations differ: {wa['failed']} != {wb['failed']}")
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="with --workload: print the driver's result line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--quick", action="store_true", help="1 s runs, one set-up, one repeat")
    parser.add_argument("--out", help="result file (default bench/out/result_<time>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload and args.seconds is not None:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"fingerprint": result.pop("fingerprint")}))
        print(json.dumps(result))
        return 0
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
