#!/usr/bin/env python3
"""Editing a shared file without re-seeding everything.

The paper's future-work item *handling modifications* — "in the current
incarnation, modifications have to be re-encoded and re-transmitted to
the network."  ``ChunkedEncoder.update`` diffs the new file version
against per-chunk content hashes, re-encodes only the dirty chunks,
retires their stale messages at the peers, and leaves everything else in
place.

Run:  python examples/file_update.py
"""

import os

from repro.rlnc import CodingParams
from repro.sim import FileSharingNetwork


def main() -> None:
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


if __name__ == "__main__":
    main()
