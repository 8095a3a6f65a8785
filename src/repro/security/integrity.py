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
eight peers.  :meth:`DigestStore.record_many` hands an MD5 batch in one
call to ``_md5.c``, a multi-buffer kernel running RFC 1321 on one message
per vector lane; the digests, and their stored order, are a
:meth:`DigestStore.record` loop's.  The user checks a batch the same way:
:meth:`DigestStore.verify_many`, one call for the rows a decoder holds
when they complete the rank.  hashlib hashes where the kernel is not live
(:mod:`repro.native`), for SHA-256, a lone message (``record``,
``verify`` and a batch of one: one lane is slower than hashlib), and as
:func:`_self_check`'s oracle.
"""

from __future__ import annotations

import ctypes
import hashlib
import hmac
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import native
from ..native import I64, PTR, address
from ..obs import TRACER as _TRACER
from ..obs import spans as _spans

__all__ = ["DigestStore", "IntegrityError", "DIGEST_ALGORITHMS", "load"]

DIGEST_ALGORITHMS = ("md5", "sha256")

_SOURCE = Path(__file__).with_name("_md5.c")


class _MD5Kernel(native.Kernel):
    """ctypes facade over ``repro_md5_many``; :attr:`lanes` messages are
    hashed side by side (16 under AVX-512, 8 under AVX, else 4)."""

    SIGNATURES = {
        "repro_md5_lanes": (ctypes.c_int, []),
        "repro_md5_many": (None, [PTR] * 3 + [I64]),  # out, addresses, lengths, n
    }

    lanes = property(lambda self: self.repro_md5_lanes())

    def hash_at(self, addresses: np.ndarray, lengths: np.ndarray) -> list[bytes]:
        """The MD5 of the ``lengths[i]`` bytes at ``addresses[i]``, two
        ``int64`` arrays over memory the caller keeps alive."""
        n = len(lengths)
        out = np.empty(16 * n, np.uint8)
        self.repro_md5_many(address(out), address(addresses), address(lengths), n)
        raw = out.tobytes()
        return [raw[i : i + 16] for i in range(0, 16 * n, 16)]

    def digests(self, payloads, block: bool) -> list[bytes]:
        """The MD5 of each payload.  A ``block``'s rows are addressed from
        its base and record size; other payloads one buffer at a time."""
        if block:
            n, size = payloads.shape[0], payloads.itemsize * payloads.shape[1]
            starts = address(payloads) + size * np.arange(n, dtype=np.int64)
            return self.hash_at(starts, np.full(n, size, np.int64))
        views = [np.frombuffer(payload, np.uint8) for payload in payloads]
        starts = np.array([address(view) for view in views], np.int64)
        return self.hash_at(starts, np.array([view.size for view in views], np.int64))


def _self_check(kernel: _MD5Kernel) -> bool:
    """``kernel`` agrees with ``hashlib.md5`` bit for bit on a batch of
    every length from 0 to 130 bytes and 4 KiB +- one block, then on every
    batch size from 1 to 2 x lanes + 1 (prefixes of one run of mixed
    lengths: lanes refill, finish out of order and idle).  Messages start
    at odd offsets of one buffer; the first batch's last ends at its end."""
    first = [*range(131), *(4096 + d for d in (-64, -9, -8, -1, 0, 1, 56, 64, 57))]
    mixed = [(37 * i + 11) % 200 for i in range(2 * kernel.lanes + 1)]
    data = hashlib.shake_256(b"repro md5 self-check").digest(15 + 4096 + 57)
    copy = np.frombuffer(data, np.uint8).copy()  # ends at its last byte; bytes has a NUL past it
    for lengths, sizes in ((first, [len(first)]), (mixed, range(1, len(mixed) + 1))):
        offsets = [(7 * i + len(lengths)) % 61 for i in range(len(lengths))]
        expected = [hashlib.md5(data[o : o + n]).digest() for o, n in zip(offsets, lengths)]
        starts, lens = address(copy) + np.array(offsets), np.array(lengths)
        if any(kernel.hash_at(starts[:n], lens[:n]) != expected[:n] for n in sizes):
            return False
    return True


def load() -> _MD5Kernel | None:
    """The compiled MD5 kernel, or ``None`` when every batch runs on hashlib."""
    return native.load("md5", _SOURCE, _MD5Kernel, _self_check)


def _batch(message_ids, payloads) -> tuple[list, object, bool]:
    """A batch's ids as a list, its payloads as given when they are one
    C-contiguous 2-D block (the flag returned) and as a list otherwise;
    mismatched lengths raise ``ValueError``."""
    message_ids = list(message_ids)
    block = (
        isinstance(payloads, np.ndarray) and payloads.ndim == 2 and payloads.flags.c_contiguous
    )
    if not block:
        payloads = list(payloads)
    if len(message_ids) != len(payloads):
        raise ValueError(f"{len(message_ids)} message ids for {len(payloads)} payloads")
    return message_ids, payloads, block


class IntegrityError(Exception):
    """Raised when a message fails digest verification in strict mode."""


@dataclass
class DigestStore:
    """Owner-side table of message digests, keyed by (file id, message id).

    The owner populates it at encode time; a downloader carries (or
    fetches) the relevant slice and checks every received message
    before its row is used: :meth:`verify` one at a time, or
    :meth:`verify_many` for the rows a decoder holds when they complete
    the rank.
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

    def _digest_many(self, op: str, payloads, block: bool) -> list[bytes]:
        """The digest of each payload, under one ``op`` span: an MD5 batch
        of two or more in one kernel call where the kernel is live,
        hashlib otherwise (the span's ``backend`` says which).  A lone
        message is cheaper on hashlib: 9 us against 24 us at 4 KiB and
        250 us against 365 us at 128 KiB on a 16-lane avx512 host, where
        two 128 KiB messages take the kernel 350 us."""
        kernel = load() if self.algorithm == "md5" and len(payloads) > 1 else None
        span = None
        if _TRACER.enabled:
            span = _spans.start_span(
                op,
                messages=len(payloads),
                bytes=sum(memoryview(payload).nbytes for payload in payloads),
                backend="hashlib" if kernel is None else "native",
            )
        try:
            if kernel is None:
                return [self._digest(payload) for payload in payloads]
            return kernel.digests(payloads, block)
        finally:
            _spans.finish_span(span)

    def record(self, file_id: int, message_id: int, payload: bytes) -> bytes:
        """Store and return the digest for a freshly encoded message."""
        digest = self._digest(payload)
        self._digests[(file_id, message_id)] = digest
        return digest

    def record_many(self, file_id: int, message_ids, payloads) -> list[bytes]:
        """Store and return the digests of a batch of one file's messages.

        ``payloads`` is a sequence of bytes-like objects, or one
        C-contiguous 2-D array whose rows are the payloads: the block of
        records an encoder's product is
        (:func:`~repro.gf.bitmatmul.record_matmul`),
        which reaches the kernel as a base address and a record size.
        The result equals a :meth:`record` loop over the pairs, stored in
        the same order.  An MD5 batch is hashed in one kernel call where
        the kernel is live, on hashlib otherwise; the ``backend`` of the
        ``security.digest`` span says which.  Mismatched lengths raise
        ``ValueError`` and store nothing.
        """
        message_ids, payloads, block = _batch(message_ids, payloads)
        digests = self._digest_many("security.digest", payloads, block)
        for message_id, digest in zip(message_ids, digests):
            self._digests[(file_id, message_id)] = digest
        return digests

    def holds(self, file_id: int, message_id: int) -> bool:
        """Whether a digest is recorded for the pair: a message without
        one can never verify."""
        return (file_id, message_id) in self._digests

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

    def verify_many(self, file_id: int, message_ids, payloads) -> list[bool]:
        """:meth:`verify` of each ``(message_id, payload)`` pair, hashed as
        :meth:`record_many` hashes: ``payloads`` is a sequence of
        bytes-like objects or one C-contiguous 2-D array (a decoder's
        rows, read in place), an MD5 batch is one kernel call where the
        kernel is live, and the batch is one ``security.verify`` span.
        Every payload is hashed once, unknown ids included (they verify
        as ``False``); mismatched lengths raise ``ValueError``.
        """
        message_ids, payloads, block = _batch(message_ids, payloads)
        digests = self._digest_many("security.verify", payloads, block)
        verdicts = []
        for message_id, digest in zip(message_ids, digests):
            expected = self._digests.get((file_id, message_id))
            verdicts.append(expected is not None and hmac.compare_digest(digest, expected))
        return verdicts

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
