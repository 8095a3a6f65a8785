"""Golden publish/update vectors for ``ChunkedEncoder``.

Pins what the owner-side pipeline puts on the wire and on disk: for four
``(p, m, file_bytes, n_peers)`` points the sha256 over every
``encode_file`` message's ``to_bytes()``, the manifest dict and the
``digests.json`` text; for one small file a four-step update sequence
(edit inside chunk 1, grow by two chunks, shrink to two, no-op) as ids,
versions, stale ids, dirty sets, upload accounting and the sha256 of
each re-encoded bundle.  ``tests/rlnc/test_golden_publish.py`` re-runs
it and compares against the committed fixture, and checks that the two
committed ``golden_manifest_*.json`` files — one of each shape earlier
builds wrote — still load.

The fixture was generated before the versioned encoder/manifest pair
was folded into ``ChunkedEncoder``/``FileManifest`` (both pairs agreed
on every byte pinned here) and must not be regenerated to make a failing
test pass; rerun only for a value an issue names as an intended change::

    PYTHONPATH=src python tools/gen_golden_publish.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.rlnc import ChunkedEncoder, CodingParams
from repro.security import DigestStore

OUT = Path(__file__).resolve().parent.parent / "tests/rlnc"
FIXTURE = OUT / "golden_publish.json"
#: ``manifest.json`` files written by the pre-fold build for the update
#: sequence below: the plain shape of the original encoding, and the
#: versioned shape after the first step.  Not regenerable from this code.
MANIFEST_PLAIN = OUT / "golden_manifest_plain.json"
MANIFEST_VERSIONED = OUT / "golden_manifest_versioned.json"

SECRET = b"golden-publish"
BASE_FILE_ID = 0x60AD
#: (p, m, file_bytes, n_peers); each point encodes a 2.5-chunk input.
POINTS = (
    (32, 32768, 1 << 20, 2),
    (8, 4096, 256 << 10, 3),
    (16, 2048, 64 << 10, 2),
    (4, 512, 4 << 10, 2),
)
UPDATE_PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8
UPDATE_PEERS = 2


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _messages_sha(encoded_files) -> str:
    return _sha(
        m.to_bytes() for ef in encoded_files for b in ef.bundles for m in b
    )


def _digests_sha(digests, chunk_ids) -> str:
    """sha256 of the exact ``digests.json`` text ``repro encode`` writes."""
    return _sha([json.dumps(digests.to_dict(chunk_ids), indent=2).encode()])


def publish_point(p, m, file_bytes, n_peers) -> dict:
    params = CodingParams(p=p, m=m, file_bytes=file_bytes)
    data = np.random.default_rng(p * 1000 + n_peers).bytes(file_bytes * 5 // 2)
    digests = DigestStore()
    manifest, encoded = ChunkedEncoder(params, SECRET, BASE_FILE_ID).encode_file(
        data, n_peers, digests
    )
    return {
        "messages_sha256": _messages_sha(encoded),
        "manifest": manifest.to_dict(),
        "chunk_ids": list(manifest.chunk_ids),
        "digests_json_sha256": _digests_sha(digests, manifest.chunk_ids),
    }


def update_inputs() -> list[tuple[str, bytes]]:
    rng = np.random.default_rng(16)
    original = rng.bytes(4 * 512)
    edited = bytearray(original)
    edited[600] ^= 0xFF  # inside chunk 1
    edited = bytes(edited)
    grown = edited + rng.bytes(700)  # +2 chunks
    shrunk = grown[: 2 * 512]
    return [
        ("original", original),
        ("edit-chunk-1", edited),
        ("grow-two-chunks", grown),
        ("shrink-to-two", shrunk),
        ("no-op", shrunk),
    ]


def update_sequence() -> list[dict]:
    """The original encoding, then one entry per update step."""
    inputs = update_inputs()
    encoder = ChunkedEncoder(UPDATE_PARAMS, SECRET, BASE_FILE_ID)
    digests = DigestStore()
    manifest, encoded = encoder.encode_file(inputs[0][1], UPDATE_PEERS, digests)
    steps = [
        {
            "step": "original",
            "manifest": manifest.to_dict(),
            "chunk_ids": list(manifest.chunk_ids),
            "messages_sha256": _messages_sha(encoded),
        }
    ]
    for name, data in inputs[1:]:
        result = encoder.update(manifest, data, UPDATE_PEERS, digests)
        manifest = result.manifest
        steps.append(
            {
                "step": name,
                "manifest": manifest.to_dict(),
                "chunk_ids": list(manifest.chunk_ids),
                "chunk_versions": list(manifest.chunk_versions),
                "stale_chunk_ids": list(result.stale_chunk_ids),
                "changed_chunks": list(result.changed_chunks),
                "unchanged_chunks": list(result.unchanged_chunks),
                "upload_bytes": result.upload_bytes,
                "full_reencode_bytes": result.full_reencode_bytes,
                "reencoded_sha256": {
                    str(i): _messages_sha([ef]) for i, ef in result.reencoded.items()
                },
                "digests_json_sha256": _digests_sha(digests, manifest.chunk_ids),
            }
        )
    return steps


def render(results: dict) -> str:
    return json.dumps(results, indent=1, sort_keys=True) + "\n"


def run() -> dict:
    return {
        "publish": {
            f"p{p}-m{m}-f{fb}-n{n}": publish_point(p, m, fb, n)
            for p, m, fb, n in POINTS
        },
        "update": update_sequence(),
    }


def main() -> None:
    FIXTURE.write_text(render(run()))
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
