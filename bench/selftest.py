#!/usr/bin/env python3
"""Checks of the benchmark itself, on 1 s runs: ``python3 bench/selftest.py``.

* ``BENCHMARK.json`` keeps to the contract's limits on names, units, bounds;
* every run prints exactly the declared metrics, with the declared units;
* spans are well formed: a parent starts before and ends after its child,
  both belong to one operation, and self times add up to no more than wall;
* counts repeat exactly between two runs of one seed.
"""

from __future__ import annotations

import json
import re
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
COUNT_UNITS = ("count", "ratio", "B")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in spec[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], w
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 <= m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def check_result(result: dict, declared: list[dict], nonzero: bool) -> None:
    result = {k: v for k, v in result.items() if k != "fingerprint"}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, set(result)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float), (m, got)
        assert got["value"] > 0 or not nonzero, (m, got)


def check_trace(path) -> int:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    covered = [0.0] * len(rows)
    for row in rows:
        assert row["end"] >= row["start"], row
        if row["parent"] >= 0:
            parent = rows[row["parent"]]
            assert parent["id"] < row["id"] and parent["op"] == row["op"], (parent, row)
            assert parent["start"] <= row["start"] and row["end"] <= parent["end"], (parent, row)
            covered[parent["id"]] += row["end"] - row["start"]
    self_total = sum(row["end"] - row["start"] - covered[row["id"]] for row in rows)
    assert all(row["end"] - row["start"] >= covered[row["id"]] - 1e-9 for row in rows)
    if rows:
        wall = max(r["end"] for r in rows) - min(r["start"] for r in rows)
        assert self_total <= wall + 1e-9, (self_total, wall)
    return len(rows)


def main() -> int:
    spec = run.SPEC
    check_spec(spec)
    print("BENCHMARK.json: ok")
    for name in run.WORKLOADS:
        check_result(run.run_workload(name, 7, 1.0, 0, setups=1), spec["end_to_end"], True)
        traced = run.run_workload(name, 7, 1.0, 1)
        check_result(traced, spec["per_layer"], False)
        spans = check_trace(run.OUT / f"trace_{name}.jsonl")
        line = f"{name}: schema ok, {spans} spans ok"
        if not name.startswith("sim_"):
            again = run.run_workload(name, 7, 1.0, 1)["metrics"]
            for m in spec["per_layer"]:
                if m["unit"] in COUNT_UNITS:
                    a, b = traced["metrics"][m["name"]]["value"], again[m["name"]]["value"]
                    assert a == b, f"{name} {m['name']}: {a!r} != {b!r} for one seed"
            line += ", counts repeat"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
