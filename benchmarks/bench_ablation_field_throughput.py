"""Ablation — raw field-arithmetic throughput across backends.

Table II's conclusion rests on the per-field cost of the inner decode
loop (vector scale-and-add).  This bench measures element throughput of
each ``GF(2^p)`` backend — tables for p <= 16, the tower for p = 32, and
the generic clmul reference — to document the constant factors behind
the decode-time table.
"""

import numpy as np
import pytest

from repro.gf import GF, ClmulField

from _util import write_bench_json

SIZE = 1 << 18


@pytest.mark.parametrize("p", [4, 8, 16, 32])
def test_field_mul_throughput(benchmark, p):
    field = GF(p)
    rng = np.random.default_rng(1)
    a = field.random(SIZE, rng)
    b = field.random(SIZE, rng)

    result = benchmark(lambda: field.mul(a, b))
    assert result.shape == (SIZE,)
    if benchmark.disabled:
        return  # nothing was timed: no rate to print or record

    elems_per_sec = SIZE / benchmark.stats["mean"]
    print(f"\nGF(2^{p}) [{type(field).__name__}]: "
          f"{elems_per_sec / 1e6:.1f} M mul/s")

    # Contribute the raw kernel throughput to the encode trajectory file
    # (one vectorised mul over 2^18 elements is the encode inner loop).
    write_bench_json(
        benchmark,
        "BENCH_encode.json",
        {
            f"field_mul_p{p}": {
                "p": p,
                "size": SIZE,
                "op": "field_mul",
                "ns_per_op": int(benchmark.stats["median"] * 1e9),
                "backend": type(field).__name__,
            }
        },
    )


def test_clmul_reference_is_slower_but_agrees(benchmark):
    p = 8
    fast = GF(p)
    slow = ClmulField(p, fast.modulus)
    rng = np.random.default_rng(2)
    a = fast.random(SIZE, rng)
    b = fast.random(SIZE, rng)

    out_slow = benchmark(lambda: slow.mul(a, b))
    assert np.array_equal(out_slow, fast.mul(a, b))
