"""Every vector width and product body ``_gfmul.c`` can be built at is
compiled and checked.

The kernel works each line at one vector width that the target macros
choose: 64 bytes under AVX-512F, 32 under AVX, 16 otherwise; and its
product runs the GFNI body where the target has GFNI and AVX-512BW, the
four-Russians body everywhere else.  A host's default build reaches only
the widest its CPU has, so each build is forced here through
``REPRO_NATIVE_CFLAGS`` (part of the cache digest) in a process of its
own, ``-mno-gfni`` keeping the four-Russians body at full width on a GFNI
host.  Each build is compared with the numpy body of ``bit_matmul`` on
group counts of every residue mod 4 and on more inner bit-rows than one
64-group chunk, and of ``record_matmul`` on records: p = 4 with an odd
count, p = 16 and 32 big-endian.
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
from repro.rlnc.message import pack_rows

kernel = bitmatmul.load()
assert native.status()["gfmul"] == "ok", native.status()
width = int(sys.argv[1])  # 0: the host's CPU flags are unknown
body = sys.argv[2]  # "": the host's CPU flags are unknown
assert kernel.vector_bytes in ((width,) if width else (16, 32, 64)), kernel.vector_bytes
assert kernel.body in ((body,) if body else ("gfni", "four-russians")), kernel.body
numpy_body = mock.patch.dict(native._LOADED, {"gfmul": (None, "numpy body")})
rng = np.random.default_rng(26)
# (p, r, n, m): ceil(n p / 8) groups is 0, 1, 2 and 3 mod 4, twice past
# one 64-group chunk (67 and 68 groups), with ragged m and row blocks.
for p, r, n, m in [(8, 40, 4, 577), (8, 3, 5, 64), (16, 9, 5, 130), (4, 2, 6, 70),
                   (8, 5, 67, 513), (32, 9, 17, 100), (32, 1, 1, 64)]:
    field = GF(p)
    C, P = field.random((r, n), rng), field.random((n, m), rng)
    got = bitmatmul.bit_matmul(field, C, P)
    with numpy_body:
        want = bitmatmul.bit_matmul(field, C, P)
    assert got.tobytes() == want.tobytes(), (p, r, n, m)
# Records (p, r, n, m): p = 4 with an odd m (a padding nibble), p = 16
# and 32 big-endian, each with a ragged tail past whole column tiles.
for p, r, n, m in [(4, 9, 7, 1031), (4, 3, 2, 63), (16, 11, 6, 1030), (32, 5, 9, 301)]:
    field = GF(p)
    C = field.random((r, n), rng)
    block = pack_rows(field.random((n, m), rng), p)
    got = bitmatmul.record_matmul(field, C, block)
    with numpy_body:
        want = bitmatmul.record_matmul(field, C, block)
    assert got.tobytes() == want.tobytes(), ("records", p, r, n, m)
"""


#: (width in bytes, the CPU flag it needs); SSE2 is x86-64's baseline.
WIDTHS = ((64, "avx512f"), (32, "avx"), (16, "sse2"))
#: The CPU flags the GFNI product body needs.
GFNI_FLAGS = {"gfni", "avx512bw"}


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


@pytest.mark.parametrize(
    "cflags, widest", [("", 64), ("-mno-gfni", 64), ("-mno-avx512f", 32), ("-mno-avx", 16)]
)
def test_width_builds_and_matches_numpy(cflags, widest):
    """The build is as wide, and runs the body, that both the flags and
    the host CPU allow: only the unflagged build can have GFNI."""
    flags = host_flags()
    width = next((w for w, feature in WIDTHS if w <= widest and feature in flags), 0)
    body = "" if not flags else "gfni" if not cflags and GFNI_FLAGS <= flags else "four-russians"
    env = dict(os.environ, REPRO_NATIVE_CFLAGS=cflags)
    env.pop("REPRO_NO_NATIVE", None)
    src = str(Path(native.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(width), body],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
