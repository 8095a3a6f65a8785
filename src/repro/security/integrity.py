"""Per-message MD5 integrity (Section III-C).

A malicious peer that cannot decode could still *inject fake messages*.
The paper defends by storing a 128-bit MD5 digest of every uploaded
message with the file's owner; a downloader fetches the digest list
before (or while) downloading and discards any message whose digest does
not match.  For the paper's running example (k=8, m=32768, q=2^32) that
is 128 digest bytes per encoded megabyte.

MD5 is kept deliberately — it is what the paper specifies and the threat
model is casual injection, not collision-resistant commitments.  The
store also supports SHA-256 for the "modern deployment" configuration.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field

__all__ = ["DigestStore", "IntegrityError", "DIGEST_ALGORITHMS"]

DIGEST_ALGORITHMS = ("md5", "sha256")


class IntegrityError(Exception):
    """Raised when a message fails digest verification in strict mode."""


@dataclass
class DigestStore:
    """Owner-side table of message digests, keyed by (file id, message id).

    The owner populates it at encode time; a downloader carries (or
    fetches) the relevant slice and calls :meth:`verify` on every
    received message before feeding it to the decoder.
    """

    algorithm: str = "md5"
    _digests: dict[tuple[int, int], bytes] = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in DIGEST_ALGORITHMS:
            raise ValueError(
                f"unknown digest algorithm {self.algorithm!r}; "
                f"expected one of {DIGEST_ALGORITHMS}"
            )

    def _digest(self, payload: bytes) -> bytes:
        return hashlib.new(self.algorithm, payload).digest()

    def record(self, file_id: int, message_id: int, payload: bytes) -> bytes:
        """Store and return the digest for a freshly encoded message."""
        digest = self._digest(payload)
        self._digests[(file_id, message_id)] = digest
        return digest

    def verify(self, file_id: int, message_id: int, payload: bytes) -> bool:
        """``True`` iff the payload matches the recorded digest.

        Unknown ``(file_id, message_id)`` pairs verify as ``False`` —
        an attacker must not be able to slip in ids the owner never
        published.

        The comparison is constant-time (:func:`hmac.compare_digest`).
        On the *owner's* verification path a peer submits candidate
        payloads and observes response timing; a short-circuiting
        ``==`` would leak how many digest bytes matched, turning the
        owner into a byte-at-a-time oracle for digests it has not
        published yet.  Digest-length inputs are cheap, so the
        constant-time discipline costs nothing.
        """
        expected = self._digests.get((file_id, message_id))
        return expected is not None and hmac.compare_digest(
            self._digest(payload), expected
        )

    def require(self, file_id: int, message_id: int, payload: bytes) -> None:
        if not self.verify(file_id, message_id, payload):
            raise IntegrityError(
                f"digest mismatch for file {file_id:#x}, message {message_id}"
            )

    def slice_for_file(self, file_id: int) -> dict[int, bytes]:
        """Digests for one file — what a remote user carries when the
        owning peer is off-line (Section III-C)."""
        return {
            mid: d for (fid, mid), d in self._digests.items() if fid == file_id
        }

    def merge(self, file_id: int, digests: dict[int, bytes]) -> None:
        """Load a carried digest slice into a fresh (user-side) store."""
        for mid, d in digests.items():
            self._digests[(file_id, mid)] = d

    def to_dict(self, file_ids=None) -> dict:
        """The ``digests.json`` layout, ``{file_id: {message_id: hex}}``,
        for ``file_ids`` in the order given (default: every file, in
        first-recorded order)."""
        if file_ids is None:
            file_ids = dict.fromkeys(fid for fid, _ in self._digests)
        return {
            str(fid): {
                str(mid): d.hex() for mid, d in self.slice_for_file(fid).items()
            }
            for fid in file_ids
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "DigestStore":
        """Load :meth:`to_dict` output; malformed input raises
        ``ValueError`` (or ``TypeError`` for a non-string digest)."""
        if not isinstance(blob, dict) or not all(
            isinstance(entries, dict) for entries in blob.values()
        ):
            raise ValueError("expected {file_id: {message_id: hex digest}}")
        store = cls()
        for file_id, entries in blob.items():
            store.merge(
                int(file_id),
                {int(mid): bytes.fromhex(d) for mid, d in entries.items()},
            )
        return store

    def overhead_bytes(self, file_id: int) -> int:
        """Total digest bytes a user must carry for ``file_id``."""
        size = hashlib.new(self.algorithm).digest_size
        return size * len(self.slice_for_file(file_id))

    def __len__(self) -> int:
        return len(self._digests)
