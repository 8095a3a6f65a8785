"""Packaging sanity: every public export must resolve.

Catches broken ``__init__`` re-export lists (a common refactoring
casualty) and keeps ``__all__`` honest across the whole package.
"""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.gf",
    "repro.rlnc",
    "repro.security",
    "repro.core",
    "repro.sim",
    "repro.storage",
    "repro.transfer",
    "repro.analysis",
    "repro.cli",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_module_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_subpackages_reachable_from_root():
    for sub in repro.__all__:
        importlib.import_module(f"repro.{sub}" if sub != "cli" else "repro.cli")


def test_no_accidental_circular_imports():
    """gf and security must import without pulling in the heavy layers."""
    import subprocess
    import sys

    code = (
        "import sys; import repro.gf, repro.security; "
        "loaded = [m for m in sys.modules if m.startswith('repro.')]; "
        "bad = [m for m in loaded if any(x in m for x in "
        "('sim', 'transfer', 'storage', 'rlnc', 'core'))]; "
        "sys.exit(1 if bad else 0)"
    )
    result = subprocess.run([sys.executable, "-c", code])
    assert result.returncode == 0, "low-level packages import high-level ones"


def test_built_package_ships_kernel_sources_and_runs_without_them(tmp_path):
    """``setup.py build`` copies the five ``.c`` files the native kernels
    are compiled from; a package that lost them anyway (an older build,
    a stripped image) must fall back to numpy, ``pow`` and hashlib
    silently, not raise, and draw the same coefficient rows."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    lib = tmp_path / "lib"
    subprocess.run(
        [sys.executable, "setup.py", "-q",
         "egg_info", "--egg-base", str(tmp_path),  # not into the checkout
         "build", "--build-base", str(tmp_path / "base"), "--build-lib", str(lib)],
        cwd=root, check=True, capture_output=True,
    )
    sources = [
        lib / "repro" / "sim" / "_fastalloc.c",
        lib / "repro" / "gf" / "_gfmul.c",
        lib / "repro" / "security" / "_modexp.c",
        lib / "repro" / "security" / "_md5.c",
        lib / "repro" / "security" / "_sha256.c",
    ]
    for source in sources:
        assert source.is_file(), f"{source.name} missing from the built package"
        source.unlink()

    code = """
import hashlib

import numpy as np
from repro import native
from repro.gf import GF, bitmatmul
from repro.security import DigestStore, KeyedStream, modexp, prng
from repro.sim import BernoulliDemand, PeerConfig, Simulation, fastpath

assert fastpath.load() is None and bitmatmul.load() is None and modexp.load() is None
assert DigestStore().record_many(1, [0, 1], [b"a", b""]) == [
    hashlib.md5(b"a").digest(), hashlib.md5(b"").digest()
]
stream = KeyedStream(b"k" * 32)
labels = [0, 1, (1 << 64) - 1, 1 << 63, *range(2, 40)]
rows = stream.symbols_many(labels, 33, 4)
assert prng.load() is None
assert np.array_equal(rows, np.stack([stream.symbols(label, 33, 4) for label in labels]))
assert hashlib.sha256(rows.tobytes()).hexdigest() == ROWS_SHA256, "rows differ from the kernel's"
assert native.status() == {
    "fastalloc": "source missing", "gfmul": "source missing",
    "modexp": "source missing", "md5": "source missing", "sha256": "source missing",
}
field = GF(8)
rng = np.random.default_rng(0)
A, B = field.random((16, 16), rng), field.random((16, 2048), rng)
assert bitmatmul.use_bit_engine(16, 16, 2048, 8)
slow = field.zeros((16, 2048))
for j in range(16):
    slow ^= field.mul(A[:, j, None], B[j][None, :])
assert np.array_equal(field.matmul(A, B), slow)
sim = Simulation([PeerConfig(100.0, BernoulliDemand(0.5)) for _ in range(4)], engine="batched")
assert sim.backend == "batched"
sim.run(5)
"""
    import hashlib

    from repro.security import KeyedStream

    # The rows drawn here, on the keyed-stream kernel where it is live.
    labels = [0, 1, (1 << 64) - 1, 1 << 63, *range(2, 40)]
    rows = KeyedStream(b"k" * 32).symbols_many(labels, 33, 4)
    code = code.replace("ROWS_SHA256", repr(hashlib.sha256(rows.tobytes()).hexdigest()))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(lib)
    env["REPRO_NATIVE_CACHE"] = str(tmp_path / "cache")
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
