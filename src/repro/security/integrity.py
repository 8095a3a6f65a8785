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

At the paper's point the owner hashes 8 MiB per 1 MB chunk published to
eight peers, as much time as the coding itself takes.  hashlib releases the
GIL while it hashes a large buffer, so :meth:`DigestStore.record_many`
spreads a large batch over every usable CPU; the digests, and the order
they are stored in, are those of a :meth:`DigestStore.record` loop.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import threading
from dataclasses import dataclass, field

from .. import native
from ..obs import REGISTRY as _OBS
from ..obs import TRACER as _TRACER
from ..obs import spans as _spans

__all__ = ["DigestStore", "IntegrityError", "DIGEST_ALGORITHMS"]

DIGEST_ALGORITHMS = ("md5", "sha256")

#: A batch is split over threads only when every payload has at least
#: ``SPLIT_MIN_PAYLOAD`` bytes and the batch at least ``SPLIT_MIN_BATCH``.
#: Below either, handing a share to a worker costs more than the hashing
#: it moves: split, 512 x 4 KiB reads 1.25x and 128 x 4 KiB 1.53x of the
#: serial loop, 16 x 8 KiB 1.08x; 64 x 8 KiB reads 0.66x and 64 x 128 KiB
#: 0.53x on two CPUs (EXPERIMENTS.md, "The owner digests on every core").
SPLIT_MIN_PAYLOAD = 8 << 10
SPLIT_MIN_BATCH = 256 << 10

_SPLIT_BATCHES = _OBS.counter(
    "repro.security.digest.split_batches", "record_many batches hashed on several threads"
)

#: The one process-wide hashing pool, built by the first batch that splits.
_POOL = None
_POOL_LOCK = threading.Lock()


def _pool():
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # Imported here: ~6 ms that a process which never splits must not pay.
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(
                max_workers=max(1, native.usable_cpus() - 1),
                thread_name_prefix="repro-digest",
            )
        return _POOL


def _drop_pool() -> None:
    """A forked child has none of its parent's worker threads: a task
    queued on the inherited pool would never run, and the lock may have
    been held by a thread that does not exist here."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _shares(payloads: list) -> int:
    """Threads to hash ``payloads`` on: one below the size rule, else one
    per usable CPU (at most one per payload)."""
    if not payloads or min(map(len, payloads)) < SPLIT_MIN_PAYLOAD:
        return 1
    if sum(map(len, payloads)) < SPLIT_MIN_BATCH:
        return 1
    return min(len(payloads), native.usable_cpus())


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

    def _digest_all(self, payloads) -> list[bytes]:
        return [self._digest(payload) for payload in payloads]

    def record(self, file_id: int, message_id: int, payload: bytes) -> bytes:
        """Store and return the digest for a freshly encoded message."""
        digest = self._digest(payload)
        self._digests[(file_id, message_id)] = digest
        return digest

    def record_many(self, file_id: int, message_ids, payloads) -> list[bytes]:
        """Store and return the digests of a batch of one file's messages.

        The result equals a :meth:`record` loop over the pairs, stored in
        the same order.  A batch past the size rule (:data:`SPLIT_MIN_PAYLOAD`,
        :data:`SPLIT_MIN_BATCH`) is hashed in contiguous shares: this
        thread takes the first, the process-wide pool the rest, one share
        per usable CPU.  Digests are stored here, after every share is in.
        Mismatched lengths raise ``ValueError`` and store nothing.
        """
        message_ids = list(message_ids)
        payloads = list(payloads)
        if len(message_ids) != len(payloads):
            raise ValueError(
                f"{len(message_ids)} message ids for {len(payloads)} payloads"
            )
        shares = _shares(payloads)
        digest_span = None
        if _TRACER.enabled:
            digest_span = _spans.start_span(
                "security.digest",
                messages=len(payloads),
                bytes=sum(map(len, payloads)),
                workers=shares,
            )
        if shares == 1:
            digests = self._digest_all(payloads)
        else:
            bounds = [len(payloads) * i // shares for i in range(shares + 1)]
            pool = _pool()
            rest = [
                pool.submit(self._digest_all, payloads[lo:hi])
                for lo, hi in zip(bounds[1:-1], bounds[2:])
            ]
            digests = self._digest_all(payloads[: bounds[1]])
            for share in rest:
                digests += share.result()
            if _OBS.enabled:
                _SPLIT_BATCHES.inc()
        for message_id, digest in zip(message_ids, digests):
            self._digests[(file_id, message_id)] = digest
        _spans.finish_span(digest_span)
        return digests

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
