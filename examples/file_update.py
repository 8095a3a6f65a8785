#!/usr/bin/env python3
"""Editing a shared file without re-seeding everything, and carrying
(almost) no metadata.

Two of the paper's future-work items in one scenario:

1. *Handling modifications* — "in the current incarnation, modifications
   have to be re-encoded and re-transmitted to the network."
   ``ChunkedEncoder.update`` diffs the new file version against per-chunk
   content hashes, re-encodes only the dirty chunks, retires their stale
   messages at the peers, and leaves everything else in place.
2. *Minimizing carried metadata* — instead of 16 digest bytes per coded
   message, the user carries one 32-byte Merkle root per file; serving
   peers attach inclusion proofs, and forged messages still cannot pass.

Run:  python examples/file_update.py
"""

import os

from repro.rlnc import CodingParams
from repro.security import MerkleDigestIndex, MerkleVerifier
from repro.sim import FileSharingNetwork


def incremental_update() -> None:
    print("=== chunk-level update: edit 1 byte of a 16-chunk file ===")
    params = CodingParams(p=16, m=64, file_bytes=1024)
    net = FileSharingNetwork([256.0, 512.0, 1024.0], params=params, seed=11)

    document = os.urandom(16 * 1024)
    handle = net.publish(owner=0, name="thesis", data=document)
    print(f"published version 0: {handle.n_chunks} chunks, "
          f"{handle.wire_bytes} coded bytes seeded")

    edited = bytearray(document)
    edited[5 * 1024 + 17] ^= 0xFF  # a one-byte edit inside chunk 5
    result = net.publish_update(0, "thesis", bytes(edited))
    print(f"update to version {handle.version}: "
          f"chunks re-encoded = {list(result.changed_chunks)}, "
          f"upload = {result.upload_bytes} B "
          f"({result.upload_savings:.0%} saved vs full re-encode)")

    fetched = net.download(user=0, name="thesis")
    assert fetched.data == bytes(edited)
    print("remote download returns the edited version, bit-exact")

    # Appending grows the file; only the new chunks are seeded.
    grown = bytes(edited) + os.urandom(2048)
    result = net.publish_update(0, "thesis", grown)
    print(f"append 2 KiB -> new chunks {list(result.changed_chunks)}, "
          f"{result.upload_savings:.0%} of a full re-seed avoided")
    assert net.download(user=1, name="thesis").data == grown


def merkle_metadata() -> None:
    print("\n=== metadata: digest list vs Merkle root ===")
    from repro.rlnc import FileEncoder, Offer, ProgressiveDecoder
    from repro.security import DigestStore
    import numpy as np

    params = CodingParams(p=16, m=64, file_bytes=1024)
    data = os.urandom(1024)
    store = DigestStore()
    encoder = FileEncoder(params, b"owner", file_id=0x7E515)
    encoded = encoder.encode_bundles(data, n_peers=8, digest_store=store)

    index = MerkleDigestIndex(store.slice_for_file(0x7E515))
    print(f"plain digest list the user would carry: "
          f"{index.carried_bytes_plain()} bytes "
          f"({index.n_leaves} MD5 digests)")
    print(f"Merkle root the user actually carries : "
          f"{index.carried_bytes_merkle()} bytes")

    verifier = MerkleVerifier({0x7E515: index.root})
    decoder = ProgressiveDecoder(params, encoder.coefficients, verifier)
    proof_bytes = 0
    for msg in encoded.bundles[0]:
        proof = index.prove(msg.message_id)
        proof_bytes += proof.size_bytes()
        assert verifier.admit_proof(0x7E515, proof)
        decoder.offer(msg)
    assert decoder.result(len(data)) == data
    print(f"per-download proof traffic (served by peers, not carried): "
          f"{proof_bytes} bytes over {params.k} messages")

    # A forged message still cannot get through.
    victim = encoded.bundles[1][0]
    forged = victim.with_payload(np.asarray(victim.payload) ^ 1)
    verifier.admit_proof(0x7E515, index.prove(victim.message_id))
    assert decoder.offer(forged) in (Offer.REJECTED, Offer.COMPLETE)
    print("forged payloads are still rejected under the Merkle scheme")


def main() -> None:
    incremental_update()
    merkle_metadata()


if __name__ == "__main__":
    main()
