"""Golden keyed-stream vectors for ``repro.security.prng``.

Pins what the keyed coefficient stream produces: ``KeyedStream.bytes_for``,
``symbols`` and ``symbols_many`` and ``CoefficientGenerator.matrix()``
over keys of 1, 32, 64 and 65 bytes (65 takes HMAC's long-key path),
integer labels at both ends of ``[0, 2^64)`` and one past it plus a
string and a bytes label, byte counts of 1, 31, 32, 33 and 1,025, every
symbol width (``p = 4`` with an odd count included), and batches of 1,
``lanes - 1`` and ``lanes + 1`` for 4, 8 and 16 lanes and 512 labels.
Every value is stored as the SHA-256 of its little-endian bytes, with
the bytes themselves when they are short.
``tests/security/test_golden_keyed.py`` re-runs it and compares against
the committed fixture, on the compiled stream kernel and with every
kernel disabled (``REPRO_NO_NATIVE=1``).

The fixture was generated while every stream ran on ``hmac``/``hashlib``
one label at a time, and must not be regenerated to make a failing test
pass; rerun only for a value an issue names as an intended change::

    PYTHONPATH=src python tools/gen_golden_keyed.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.gf import GF
from repro.rlnc import CoefficientGenerator
from repro.rlnc.coefficients import REPAIR_ID_BASE
from repro.security import SUPPORTED_SYMBOL_BITS, KeyedStream

FIXTURE = Path(__file__).resolve().parent.parent / "tests/security/golden_keyed.json"
FORMAT = 1

KEY_BYTES = (1, 32, 64, 65)
LABELS = {
    "zero": 0,
    "one": 1,
    "2^63-1": (1 << 63) - 1,
    "2^63": 1 << 63,
    "2^64-1": (1 << 64) - 1,
    "2^64": 1 << 64,
    "str": "coefficients",
    "bytes": b"\x00label\xff",
}
BYTE_COUNTS = (1, 31, 32, 33, 1025)
SYMBOL_COUNTS = (1, 33, 1025)
#: 1 and 512, and lanes - 1 / lanes + 1 for 4, 8 and 16 lanes.
BATCH_SIZES = (1, 3, 5, 7, 9, 15, 17, 512)
MATRIX_KS = (1, 33, 64)


def key(size: int) -> bytes:
    return hashlib.shake_256(b"repro golden keyed").digest(size)


def batch_labels(kind: str, n: int) -> list:
    """``ids``: message ids 0..n-1; ``wide``: n labels strided across
    ``[0, 2^64)`` from its top, repair ids included; ``mixed``: every
    label of :data:`LABELS`, out-of-range and non-integer ones too."""
    if kind == "ids":
        return list(range(n))
    if kind == "wide":
        return [((1 << 64) - 1 - i * 0x9E3779B97F4A7C15) % (1 << 64) for i in range(n)]
    return list(LABELS.values())


def pin(data) -> str:
    """``data``'s SHA-256, after its hex when it is at most 64 bytes."""
    if isinstance(data, np.ndarray):
        data = data.astype(data.dtype.newbyteorder("<"), copy=False).tobytes()
    digest = hashlib.sha256(data).hexdigest()
    return f"{data.hex()}:{digest}" if len(data) <= 64 else digest


def array_pin(array: np.ndarray) -> dict:
    shape = "x".join(map(str, array.shape))
    return {"shape": shape, "dtype": str(array.dtype), "data": pin(array)}


def stream_point(size: int) -> dict:
    stream = KeyedStream(key(size))
    return {
        "bytes_for": {
            name: {str(n): pin(stream.bytes_for(label, n)) for n in BYTE_COUNTS}
            for name, label in LABELS.items()
        },
        "symbols": {
            name: {
                str(bits): {
                    str(n): array_pin(stream.symbols(label, n, bits)) for n in SYMBOL_COUNTS
                }
                for bits in SUPPORTED_SYMBOL_BITS
            }
            for name, label in LABELS.items()
        },
        "symbols_many": {
            str(bits): {
                **{
                    f"{kind}-{n}": array_pin(
                        stream.symbols_many(batch_labels(kind, n), 64, bits)
                    )
                    for kind in ("ids", "wide")
                    for n in BATCH_SIZES
                },
                "mixed": array_pin(stream.symbols_many(batch_labels("mixed", 0), 33, bits)),
                "odd-count": array_pin(stream.symbols_many(range(17), 33, bits)),
                "long-stream": array_pin(
                    stream.symbols_many([(1 << 63) + 5], 4096 * 8 // bits + 1, bits)
                ),
                "empty": array_pin(stream.symbols_many([], 64, bits)),
            }
            for bits in SUPPORTED_SYMBOL_BITS
        },
    }


def matrix_point(p: int, k: int) -> dict:
    def generator():
        return CoefficientGenerator(GF(p), k, b"golden keyed secret", 0x5EED)

    fresh = generator().matrix(range(512))
    warm = generator()
    for mid in (5, 7, 1 << 40):
        warm.row(mid)
    mixed = warm.matrix([3, 5, 7, 9, 5, 3, 1 << 40, REPAIR_ID_BASE - 1, 9])
    again = warm.matrix([REPAIR_ID_BASE - 1, 3, 0])
    return {
        "fresh-512": array_pin(fresh),
        "cached-repeated": array_pin(mixed),
        "after-cache": array_pin(again),
        "empty": array_pin(generator().matrix([])),
    }


def run() -> dict:
    return {
        "format": FORMAT,
        "streams": {f"key{size}": stream_point(size) for size in KEY_BYTES},
        "matrix": {
            f"p{p}-k{k}": matrix_point(p, k) for p in SUPPORTED_SYMBOL_BITS for k in MATRIX_KS
        },
    }


def render(results: dict) -> str:
    return json.dumps(results, indent=1, sort_keys=True) + "\n"


def main() -> None:
    text = render(run())
    FIXTURE.write_text(text)
    print(f"wrote {FIXTURE} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
