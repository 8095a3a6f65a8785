"""Ablation — incremental re-encoding vs the paper's full re-encode.

Section VI: in the base design "modifications have to be re-encoded and
re-transmitted to the network".  `ChunkedEncoder.update` re-seeds only the
dirty chunks; this bench sweeps the edit footprint and reports the
upload saved, plus verifies updated files decode from the mixed
old/new message population.
"""

import numpy as np
import pytest

from repro.rlnc import ChunkedEncoder, CodingParams, StreamingDecoder

from _util import print_header, print_table

PARAMS = CodingParams(p=16, m=128, file_bytes=2048)  # k = 8
N_CHUNKS = 32
N_PEERS = 4


def run_sweep(rng):
    original = rng.bytes(N_CHUNKS * PARAMS.file_bytes)
    encoder = ChunkedEncoder(PARAMS, b"owner", base_file_id=0xD0C)
    manifest, encoded = encoder.encode_file(original, n_peers=N_PEERS)
    cases = {}
    for label, touched in (
        ("1 byte", [100]),
        ("1 chunk", list(range(0, PARAMS.file_bytes, 97))),
        ("25% of chunks", [i * PARAMS.file_bytes for i in range(0, N_CHUNKS, 4)]),
        ("every chunk", [i * PARAMS.file_bytes for i in range(N_CHUNKS)]),
    ):
        edited = bytearray(original)
        for offset in touched:
            edited[offset] ^= 0xFF
        result = encoder.update(manifest, bytes(edited), n_peers=N_PEERS)
        # verify decodability of the updated version
        decoder = StreamingDecoder(result.manifest, encoder)
        for i, ef in enumerate(encoded):
            ef = result.reencoded.get(i, ef)
            for bundle in ef.bundles:
                for message in bundle:
                    decoder.offer(message)
        assert decoder.result() == bytes(edited)
        cases[label] = result
    return cases


def test_update_upload_savings(benchmark):
    rng = np.random.default_rng(3)
    cases = benchmark.pedantic(lambda: run_sweep(rng), rounds=1, iterations=1)

    print_header(
        f"Ablation: incremental update upload ({N_CHUNKS} chunks x "
        f"{PARAMS.file_bytes} B, {N_PEERS} peers)"
    )
    rows = []
    for label, result in cases.items():
        rows.append(
            [
                label,
                len(result.changed_chunks),
                f"{result.upload_bytes:,}",
                f"{result.full_reencode_bytes:,}",
                f"{result.upload_savings:.1%}",
            ]
        )
    print_table(
        ["edit", "chunks dirty", "upload B", "full re-encode B", "saved"], rows
    )

    assert len(cases["1 byte"].changed_chunks) == 1
    assert cases["1 byte"].upload_savings == pytest.approx(1 - 1 / N_CHUNKS)
    assert len(cases["25% of chunks"].changed_chunks) == N_CHUNKS // 4
    # Worst case degrades gracefully to the paper's full re-encode.
    assert cases["every chunk"].upload_savings == pytest.approx(0.0, abs=0.01)
    # Monotone: more edits, more upload.
    uploads = [cases[k].upload_bytes for k in
               ("1 byte", "1 chunk", "25% of chunks", "every chunk")]
    assert uploads[0] == uploads[1]  # both touch exactly one chunk
    assert uploads[1] < uploads[2] < uploads[3]
