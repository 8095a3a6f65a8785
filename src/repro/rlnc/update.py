"""Chunk-level file updates (Section VI future work).

In the paper's base design "modifications have to be re-encoded and
re-transmitted to the network" — wholesale.  Because chunks are encoded
independently (Section III-D), the natural refinement implemented by
:meth:`repro.rlnc.chunking.ChunkedEncoder.update` re-encodes **only the
chunks whose content changed**: the manifest keeps a per-chunk content
hash, the owner diffs a new file version against it, bumps only the
dirty chunks' versions (which rotates their file-ids and per-version
coefficient secrets), and uploads replacement bundles for exactly those
chunks.  For a one-byte edit of a large file this cuts the
re-initialization upload from the whole file to a single chunk's
bundles.

The version is folded into both the chunk id (so stale peer messages
can never be confused with fresh ones) and the coefficient sub-secret
(so coefficients are never reused across versions of the same chunk —
reuse would let an observer XOR two ciphertext generations and learn
the plaintext delta).  This module holds what an update reports back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .encoder import EncodedFile

if TYPE_CHECKING:
    from .chunking import FileManifest

__all__ = ["UpdateResult"]


@dataclass(frozen=True)
class UpdateResult:
    """What an update produced and what it avoided re-sending."""

    manifest: FileManifest
    #: Replacement bundles, keyed by chunk index (only dirty chunks).
    reencoded: dict[int, EncodedFile]
    #: Chunk ids whose stored messages peers should now drop.
    stale_chunk_ids: tuple[int, ...]
    changed_chunks: tuple[int, ...]
    unchanged_chunks: tuple[int, ...]
    upload_bytes: int
    full_reencode_bytes: int

    @property
    def upload_savings(self) -> float:
        """Fraction of the naive full re-encode upload avoided."""
        if self.full_reencode_bytes == 0:
            return 0.0
        return 1.0 - self.upload_bytes / self.full_reencode_bytes
