"""Direct probes for layers the harness cannot bracket from outside."""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: What the reference kernel takes on the box the benchmark was written on.
REFERENCE_NOMINAL_MS = 9.0


class ReferenceKernel:
    """A fixed piece of work that tells how fast the machine is right now.

    The speed of a shared 2-core box drifts by 10-20 % over tens of seconds
    (cache and memory contention from neighbours), which is more than the
    regressions the benchmark has to resolve.  The kernel is run between
    rounds; dividing a round's time by the kernel's time next to it cancels
    the drift.  It mixes what the workloads are made of: table gathers and
    xor over numpy arrays (GF arithmetic), interpreter bytecode (per-message
    bookkeeping) and bulk copies (payload movement).  It never changes, so
    two commits are compared in the same unit.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = np.arange(1 << 16, dtype=np.uint32)
        self._index = rng.integers(0, 1 << 16, size=1 << 18)
        self._gathered = np.empty(1 << 18, dtype=np.uint32)
        self._block = np.zeros(1 << 22, dtype=np.uint8)
        self._copy = np.empty_like(self._block)

    def ms(self) -> float:
        # Every result lands in a preallocated buffer: the kernel must not
        # disturb the allocator of the process whose memory is measured.
        start = perf_counter()
        for _ in range(8):
            np.take(self._table, self._index, out=self._gathered)
            np.bitwise_xor(self._gathered, self._table[-1], out=self._gathered)
        acc = 0
        for i in range(60_000):
            acc += i * i
        for _ in range(8):
            np.copyto(self._copy, self._block)
        return (perf_counter() - start) * 1e3


def rate(fn, seconds: float = 0.15) -> float:
    """Calls of ``fn`` per second, measured over about ``seconds`` after
    one untimed call."""
    fn()
    calls = 0
    start = perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return calls / elapsed
