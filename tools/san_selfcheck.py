#!/usr/bin/env python
"""Run every native kernel's bitwise self-check under the current build
flags, through the shared loader.

CI invokes this with ``REPRO_NATIVE_CFLAGS`` set to the ASan/UBSan flag
set (and ``LD_PRELOAD`` pointing at libasan so the sanitizer runtime is
present in the Python process): ``sim/_fastalloc.c``, ``gf/_gfmul.c``,
``security/_modexp.c``, ``security/_md5.c`` and ``security/_sha256.c``
are recompiled with sanitizers on (the flags are part of the cache
digest, so this never reuses a normal build), then fuzzed against their
numpy references, the modexp kernel against builtin ``pow`` and the MD5
and keyed-stream kernels against hmac/hashlib, demanding zero bit
differences — any out-of-bounds
access, UB, or divergence fails the run.  The ``fastalloc`` fuzz
apportions rows at the largest ledger totals its overflow guard admits
and one past it, so UBSan traps any signed overflow the guard lets
through.  The ``gfmul`` fuzz runs the product at every storage
width — records at w = p = 4, 8, 16 and 32 (an odd m at w = 4, more
than 64 groups, ragged column blocks) and native uint32 at w = 32 —
with every source and product an array of its own, so a row's last
byte is its buffer's last byte and a tail over-read or over-write lands
in a redzone; the generator it builds from the field's tables reads
them under the redzones too.  It covers the elimination steps at p = 4,
8, 16 and 32: the tower's index sums into its base field's antilog
table, zero and equal halves included, are read under ASan's redzones
too.  The ``modexp`` check runs every limb
count from 1 to the cap, so the kernel's stack buffers are read and
written at their full length.  The ``md5`` check hashes messages at
odd offsets of one buffer that end exactly at its last byte, so a read
past a message's end, or past a lane's tail buffer, lands in a redzone.
The ``sha256`` check passes every batch's labels as an array of their
own and takes every result in an array of its own, so the last label
ends its buffer and the last label's last output byte ends its buffer:
a read past the labels or a write past a row lands in a redzone.

Exit codes: 0 pass, 1 compile/load/self-check failure, 2 no compiler.
"""

from __future__ import annotations

import os
import sys

from repro import native
from repro.gf import bitmatmul
from repro.security import integrity, modexp, prng
from repro.sim import fastpath

#: The module of every kernel: each has a public ``load()``.
KERNELS = (fastpath, bitmatmul, modexp, integrity, prng)


def main() -> int:
    print(f"extra cflags : {os.environ.get('REPRO_NATIVE_CFLAGS', '') or '(none)'}")
    for module in KERNELS:
        module.load()
    status = native.status()
    for name, why in status.items():
        print(f"{name:<13}: {why}")
    if "no compiler" in status.values():
        print("SKIP: no C compiler on this host")
        return 2
    if any(why != "ok" for why in status.values()):
        print("FAIL: a kernel did not compile, load or pass its self-check")
        return 1
    print("PASS: every self-check fuzz ran clean (zero bit differences)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
