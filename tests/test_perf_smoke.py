"""The one timing harness of ``benchmarks/perf_smoke.py``."""

import importlib.util
import time
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perf_smoke.py"
_spec = importlib.util.spec_from_file_location("perf_smoke", _PATH)
perf_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_smoke)


def test_ratio_gate_verdict_and_alternation(capsys):
    def side():
        time.sleep(0.002)

    # One callable against itself measures ~1.0x: over a budget below 1,
    # under a budget above it.
    assert perf_smoke.ratio_gate("same", side, side, 0.5, "hint", reps=5) == 1
    assert perf_smoke.ratio_gate("same", side, side, 2.0, "hint", reps=5) == 0
    out = capsys.readouterr().out
    assert out.count("FAIL: same") == 1 and "hint" in out

    calls = []
    perf_smoke.ratio_gate(
        "order", lambda: calls.append("s"), lambda: calls.append("r"), 1e9, "", reps=4
    )
    assert "".join(calls) == "srrssrrs"


def test_ratio_gate_takes_a_sides_own_seconds():
    # A float return is the side's own measurement, not the call's wall time.
    assert perf_smoke.ratio_gate("own", lambda: 3.0, lambda: 1.0, 2.9, "", reps=3) == 1
    assert perf_smoke.ratio_gate("own", lambda: 3.0, lambda: 1.0, 3.1, "", reps=3) == 0
