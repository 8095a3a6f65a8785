"""Golden RSA vectors for ``repro.security.keys``.

Pins what seeded key generation and the private-key operation produce:
for four ``(bits, seed)`` points the modulus, the public exponent,
``sha256(d)``, the public fingerprint, the signatures over three fixed
messages (at 256 bits two of the SHA-256 digests exceed ``n``, so the
``% n`` reduction is pinned too) and, for ``v`` in ``{0, 1, n - 1, n // 3}``,
``encrypt(v)``, ``decrypt(encrypt(v))`` and ``decrypt(v)``.
``tests/security/test_keys.py`` re-runs it and compares against the
committed fixture.

The fixture was generated while ``sign``/``decrypt`` were a single
``pow(x, d, n)`` — before the private operation moved to the CRT — and
must not be regenerated to make a failing test pass; rerun only for a
value an issue names as an intended change::

    PYTHONPATH=src python tools/gen_golden_keys.py
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from pathlib import Path

from repro.security import generate_keypair

FIXTURE = Path(__file__).resolve().parent.parent / "tests/security/golden_keys.json"
FORMAT = 1

#: (bits, seed).  (512, 31) is the bench's fetch key, (512, 60) the
#: golden-download matrix's.
POINTS = ((256, 7), (512, 31), (512, 60), (1024, 3))
MESSAGES = {
    "empty": b"",
    "auth-zero-nonce": b"repro-auth|" + bytes(32),
    "one-kib": bytes(range(256)) * 4,
}


def point_id(bits: int, seed: int) -> str:
    return f"bits{bits}-seed{seed}"


@cache
def keypair(bits: int, seed: int):
    return generate_keypair(bits=bits, seed=seed)


def key_point(bits: int, seed: int) -> dict:
    keys = keypair(bits, seed)
    n, d = keys.public.n, keys.private.d
    values = {"zero": 0, "one": 1, "n-minus-1": n - 1, "n-third": n // 3}
    return {
        "n": hex(n),
        "e": keys.public.e,
        "d_sha256": hashlib.sha256(d.to_bytes((d.bit_length() + 7) // 8, "big")).hexdigest(),
        "fingerprint": keys.public.fingerprint(),
        "signatures": {
            name: hex(keys.private.sign(message)) for name, message in MESSAGES.items()
        },
        "decrypt": {
            name: {
                "ciphertext": hex(keys.public.encrypt(v)),
                "round_trip": hex(keys.private.decrypt(keys.public.encrypt(v))),
                "of_value": hex(keys.private.decrypt(v)),
            }
            for name, v in values.items()
        },
    }


def run() -> dict:
    return {
        "format": FORMAT,
        "keys": {point_id(bits, seed): key_point(bits, seed) for bits, seed in POINTS},
    }


def render(results: dict) -> str:
    return json.dumps(results, indent=1, sort_keys=True) + "\n"


def main() -> None:
    text = render(run())
    FIXTURE.write_text(text)
    print(f"wrote {FIXTURE} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
