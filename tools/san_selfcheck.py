#!/usr/bin/env python
"""Run both native kernels' bitwise self-checks under the current build
flags, through the shared loader.

CI invokes this with ``REPRO_NATIVE_CFLAGS`` set to the ASan/UBSan flag
set (and ``LD_PRELOAD`` pointing at libasan so the sanitizer runtime is
present in the Python process): ``sim/_fastalloc.c`` and ``gf/_gfmul.c``
are recompiled with sanitizers on (the flags are part of the cache
digest, so this never reuses a normal build), then fuzzed against their
numpy references demanding zero bit differences — any out-of-bounds
access, UB, or divergence fails the run.

Exit codes: 0 pass, 1 compile/load/self-check failure, 2 no compiler.
"""

from __future__ import annotations

import os
import sys

from repro import native
from repro.gf import bitmatmul
from repro.sim import fastpath


def main() -> int:
    print(f"extra cflags : {os.environ.get('REPRO_NATIVE_CFLAGS', '') or '(none)'}")
    fastpath.load()
    bitmatmul.load()
    status = native.status()
    for name, why in status.items():
        print(f"{name:<13}: {why}")
    if "no compiler" in status.values():
        print("SKIP: no C compiler on this host")
        return 2
    if any(why != "ok" for why in status.values()):
        print("FAIL: a kernel did not compile, load or pass its self-check")
        return 1
    print("PASS: both self-check fuzzes ran clean (zero bit differences)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
