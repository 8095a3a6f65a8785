"""The fold of the versioned encoder/manifest into ``ChunkedEncoder`` /
``FileManifest``: one class serves publish, update, repair-aware decode,
the simulator and the CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.repair import RepairAwareSource, RepairRecord, recombine
from repro.rlnc import ChunkedEncoder, CodingParams, Offer, StreamingDecoder
from repro.sim import FileSharingNetwork

#: k = 8 at every field width, 256-byte chunks.
PARAMS = {
    p: CodingParams(p=p, m=256 * 8 // (8 * p), file_bytes=256) for p in (4, 8, 16, 32)
}


def _messages(encoded_file):
    return [m for bundle in encoded_file.bundles for m in bundle]


@pytest.mark.parametrize("p", sorted(PARAMS))
def test_update_roundtrip_through_mixed_versions_and_repair(p, rng):
    """Chunk 0 decodes from a surviving version-0 bundle, chunk 1 from its
    fresh version-1 bundle, chunk 2 from repair-range messages only."""
    params = PARAMS[p]
    encoder = ChunkedEncoder(params, b"owner", base_file_id=0xF01D)
    original = rng.bytes(3 * params.file_bytes - 40)
    manifest, encoded = encoder.encode_file(original, n_peers=2)
    edited = bytearray(original)
    edited[params.file_bytes + 3] ^= 0x5A
    edited = bytes(edited)
    result = encoder.update(manifest, edited, n_peers=2)
    assert result.manifest.chunk_versions == (0, 1, 0)

    helpers = encoded[2].bundles[0]
    record = RepairRecord(
        manifest.chunk_ids[2], 0, tuple(m.message_id for m in helpers), params.k
    )
    pool = (
        list(encoded[0].bundles[1])
        + _messages(encoded[1])  # stale: version 0 of the edited chunk
        + list(result.reencoded[1].bundles[0])
        + recombine(record, helpers)
    )

    records = {}  # the live registry: filled after the decoder exists
    decoder = StreamingDecoder(result.manifest, RepairAwareSource(encoder, records))
    records[record.file_id] = [record]
    outcomes = [decoder.offer(m) for m in pool]
    assert decoder.result() == edited
    stale = slice(params.k, 3 * params.k)
    assert set(outcomes[stale]) == {Offer.REJECTED}
    assert Offer.REJECTED not in outcomes[: params.k] + outcomes[3 * params.k :]

    # The bare encoder decodes everything but the repair-range ids.
    plain = StreamingDecoder(result.manifest, encoder)
    assert {plain.offer(m) for m in pool[4 * params.k :]} == {Offer.REJECTED}
    assert plain.needed_for_chunk(2) == params.k


def test_repair_aware_source_keeps_an_empty_registry_shared():
    encoder = ChunkedEncoder(PARAMS[16], b"owner", base_file_id=7)
    registry = {}
    source = RepairAwareSource(encoder, registry)
    generator = source.coefficient_generator(0)
    record = RepairRecord(7, 0, (0, 1, 2), 2)
    registry[7] = [record]
    assert generator.row(record.message_ids[1]).shape == (PARAMS[16].k,)
    # Ordinary ids and versions pass straight through.
    assert np.array_equal(
        source.coefficient_generator(1, 3).row(5),
        encoder.coefficient_generator(1, 3).row(5),
    )


def test_network_publish_and_cli_encode_agree(tmp_path, rng):
    """Same bytes, secret, file id and parameters: the simulator's publish
    and ``repro encode`` write equal manifests and equal per-peer bytes."""
    params = CodingParams(p=16, m=64, file_bytes=1024)
    data = rng.bytes(2500)
    src = tmp_path / "video.bin"
    src.write_bytes(data)

    net = FileSharingNetwork([256.0] * 3, params=params, seed=4)
    net.secrets[1] = b"s3cret"
    handle = net.publish(1, "video.bin", data)

    out = tmp_path / "enc"
    assert main(
        [
            "encode", str(src), "--out", str(out), "--secret", "s3cret",
            "--peers", "3", "--p", "16", "--m", "64", "--chunk-bytes", "1024",
            "--file-id", str(handle.manifest.base_file_id),
        ]
    ) == 0
    assert json.loads((out / "manifest.json").read_text()) == handle.manifest.to_dict()
    assert json.loads((out / "digests.json").read_text()) == (
        net.digest_stores[1].to_dict(handle.manifest.chunk_ids)
    )
    for peer in range(3):
        written = net.stores[peer].save_dat(str(tmp_path / f"net-peer{peer}"))
        assert len(written) == handle.n_chunks
        for path in written:
            name = path.rsplit("/", 1)[1]
            with open(path, "rb") as fh:
                assert fh.read() == (out / f"peer{peer}" / name).read_bytes()
