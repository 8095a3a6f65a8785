"""The keyed coefficient stream replays ``golden_keyed.json`` bit for bit.

``golden_keyed.json`` was generated by ``tools/gen_golden_keyed.py``
while every stream ran on ``hmac``/``hashlib`` one label at a time.
It is replayed in this process, where the compiled stream kernel
runs whatever it takes, and in a fresh one with every kernel disabled.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro import native
from repro.security import prng

ROOT = Path(__file__).resolve().parents[2]
_TOOL = ROOT / "tools" / "gen_golden_keyed.py"
_spec = importlib.util.spec_from_file_location("gen_golden_keyed", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def fixture():
    return json.loads(golden.FIXTURE.read_text())


@pytest.fixture(scope="module")
def results():
    return golden.run()


def test_format(fixture):
    assert fixture["format"] == golden.FORMAT


@pytest.mark.parametrize("size", golden.KEY_BYTES)
def test_streams(fixture, results, size):
    assert results["streams"][f"key{size}"] == fixture["streams"][f"key{size}"]


def test_matrix(fixture, results):
    assert results["matrix"] == fixture["matrix"]


def test_whole_file(results):
    assert golden.render(results) == golden.FIXTURE.read_text()


def test_replay_draws_its_batches_on_the_kernel(fixture):
    """Where the kernel is live, the replay's batches of integer labels
    went through it (the mixed and long-key batches did not)."""
    kernel = prng.load()
    if kernel is None:
        pytest.skip(f"keyed-stream kernel not live: {native.status()['sha256']}")
    calls = []

    class Counting:
        lanes = kernel.lanes

        def stream(self, key, labels, per):
            calls.append(len(labels))
            return kernel.stream(key, labels, per)

    with mock.patch.dict(native._LOADED, {"sha256": (Counting(), "ok")}):
        results = golden.run()
    assert json.loads(golden.render(results)) == fixture
    assert len(calls) > 100 and max(calls) == 512


def test_whole_file_without_native_kernels():
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('g', {str(_TOOL)!r})\n"
        "g = importlib.util.module_from_spec(spec); spec.loader.exec_module(g)\n"
        "sys.exit(0 if g.render(g.run()) == g.FIXTURE.read_text() else 1)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "REPRO_NO_NATIVE": "1"}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
