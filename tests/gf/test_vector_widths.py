"""Every vector width ``_gfmul.c`` can be built at is compiled and checked.

The kernel works each line at one vector width that the target macros
choose: 64 bytes under AVX-512F, 32 under AVX, 16 otherwise.  A host's
default build reaches only the widest its CPU has, so each width is forced
here through ``REPRO_NATIVE_CFLAGS`` (part of the cache digest) in a
process of its own, and that build is compared with the numpy body of
``bit_matmul`` on group counts of every residue mod 4 and on more inner
bit-rows than one 64-group chunk.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from repro import native

pytestmark = [
    pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64", "i686", "i386"),
        reason="the width flags are x86 ones",
    ),
    pytest.mark.skipif(native._compiler() is None, reason="no C compiler"),
]

CHILD = """
import sys
from unittest import mock

import numpy as np

from repro import native
from repro.gf import GF, bitmatmul

kernel = bitmatmul.load()
assert native.status()["gfmul"] == "ok", native.status()
width = int(sys.argv[1])  # 0: the host's CPU flags are unknown
assert kernel.vector_bytes in ((width,) if width else (16, 32, 64)), kernel.vector_bytes
rng = np.random.default_rng(26)
# (p, r, n, m): ceil(n p / 8) groups is 0, 1, 2 and 3 mod 4, twice past
# one 64-group chunk (67 and 68 groups), with ragged m and row blocks.
for p, r, n, m in [(8, 40, 4, 577), (8, 3, 5, 64), (16, 9, 5, 130), (4, 2, 6, 70),
                   (8, 5, 67, 513), (32, 9, 17, 100), (32, 1, 1, 64)]:
    field = GF(p)
    C, P = field.random((r, n), rng), field.random((n, m), rng)
    got = bitmatmul.bit_matmul(field, C, P)
    with mock.patch.dict(native._LOADED, {"gfmul": (None, "numpy body")}):
        want = bitmatmul.bit_matmul(field, C, P)
    assert got.tobytes() == want.tobytes(), (p, r, n, m)
"""


#: (width in bytes, the CPU flag it needs); SSE2 is x86-64's baseline.
WIDTHS = ((64, "avx512f"), (32, "avx"), (16, "sse2"))


def host_flags() -> set[str]:
    """The CPU's flags from /proc/cpuinfo; empty where it cannot be read."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


@pytest.mark.parametrize("cflags, widest", [("", 64), ("-mno-avx512f", 32), ("-mno-avx", 16)])
def test_width_builds_and_matches_numpy(cflags, widest):
    """The build is as wide as both the flags and the host CPU allow."""
    flags = host_flags()
    width = next((w for w, feature in WIDTHS if w <= widest and feature in flags), 0)
    env = dict(os.environ, REPRO_NATIVE_CFLAGS=cflags)
    env.pop("REPRO_NO_NATIVE", None)
    src = str(Path(native.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(width)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
