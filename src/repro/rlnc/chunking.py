"""1 MB chunking, streaming and chunk-level updates (Sections III-D, VI).

Large files are divided into 1 MB sub-files, each encoded independently
with its own derived file-id, so (a) ``k`` stays small enough for
real-time decoding and (b) audio/video can be *streamed*: each chunk
becomes playable as soon as its own ``k`` messages arrive, instead of
waiting for the entire file.  The user carries a small manifest
recording how the chunks fit back together.

Because chunks are encoded independently, a modified file re-encodes
only the chunks whose content changed (see :mod:`repro.rlnc.update`):
each chunk carries a *version* that is folded into its id and its
coefficient sub-secret.  A never-updated file is all version 0.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..gf import GF, BinaryField
from ..security.integrity import DigestStore
from ..security.prng import derive_key
from .coefficients import CoefficientGenerator
from .decoder import Offer, ProgressiveDecoder
from .encoder import EncodedFile, FileEncoder
from .message import HEADER_BYTES, EncodedMessage
from .params import ONE_MEGABYTE, CodingParams
from .update import UpdateResult

__all__ = [
    "derive_chunk_id",
    "split_chunks",
    "FileManifest",
    "ChunkedEncoder",
    "StreamingDecoder",
]


def derive_chunk_id(base_file_id: int, index: int, version: int = 0) -> int:
    """Stable 64-bit file-id for chunk ``index`` at content ``version``.

    At version 0 chunk 0 keeps the base id (a small file *is* its only
    chunk) and later chunks hash the pair so ids cannot collide by
    arithmetic accident.  Later versions hash the triple under a
    distinct prefix, so stale peer messages can never be confused with
    fresh ones.
    """
    if version == 0 and index == 0:
        return base_file_id
    material = base_file_id.to_bytes(8, "big") + index.to_bytes(8, "big")
    if version:
        material = b"v" + material + version.to_bytes(8, "big")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _derive_chunk_ids(base_file_id: int, chunk_versions) -> tuple[int, ...]:
    return tuple(
        derive_chunk_id(base_file_id, i, v) for i, v in enumerate(chunk_versions)
    )


def split_chunks(data: bytes, chunk_bytes: int = ONE_MEGABYTE) -> list[bytes]:
    """Split ``data`` into fixed-size chunks (last one may be short)."""
    if chunk_bytes < 1:
        raise ValueError(f"chunk size must be positive, got {chunk_bytes}")
    if not data:
        return [b""]
    return [data[i : i + chunk_bytes] for i in range(0, len(data), chunk_bytes)]


def _chunk_hash(chunk: bytes) -> bytes:
    return hashlib.sha256(chunk).digest()


@dataclass(frozen=True)
class FileManifest:
    """The metadata that describes one version of a chunked file.

    This is the paper's "additional information about how such 1MB files
    fit together into a large file" plus the per-chunk byte lengths
    needed to strip padding.  A user needs ``chunk_ids``,
    ``chunk_versions``, ``chunk_lengths`` and the coding parameters to
    decode; the owner additionally keeps ``version`` and the per-chunk
    content hashes to diff a new file version against
    (:meth:`ChunkedEncoder.update`).  ``chunk_versions`` defaults to all
    zero and ``chunk_hashes`` to none.
    """

    base_file_id: int
    total_length: int
    chunk_bytes: int
    p: int
    m: int
    chunk_ids: tuple[int, ...]
    chunk_lengths: tuple[int, ...]
    version: int = 0
    chunk_versions: tuple[int, ...] | None = None
    chunk_hashes: tuple[bytes, ...] = ()

    def __post_init__(self):
        n = len(self.chunk_ids)
        if self.chunk_versions is None:
            object.__setattr__(self, "chunk_versions", (0,) * n)
        if not (
            n == len(self.chunk_lengths) == len(self.chunk_versions)
            and len(self.chunk_hashes) in (0, n)
        ):
            raise ValueError("per-chunk fields must align")
        if sum(self.chunk_lengths) != self.total_length:
            raise ValueError("chunk lengths do not sum to the total length")

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_ids)

    def params_for_chunk(self, index: int) -> CodingParams:
        return CodingParams(p=self.p, m=self.m, file_bytes=self.chunk_bytes)

    def to_dict(self) -> dict:
        """JSON-serialisable form (``manifest.json``).

        Chunk ids are not written: they follow from the base id and the
        per-chunk versions (:func:`derive_chunk_id`).
        """
        return {
            "base_file_id": self.base_file_id,
            "total_length": self.total_length,
            "chunk_bytes": self.chunk_bytes,
            "p": self.p,
            "m": self.m,
            "version": self.version,
            "chunk_versions": list(self.chunk_versions),
            "chunk_lengths": list(self.chunk_lengths),
            "chunk_hashes": [h.hex() for h in self.chunk_hashes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FileManifest":
        """Read :meth:`to_dict` output, or the older plain shape that
        lists ``chunk_ids`` and knows no versions (read as version 0,
        no hashes).  ``version`` and ``chunk_versions`` come together;
        ``chunk_ids`` given next to them must be the ids they derive.
        """
        base_file_id = data["base_file_id"]
        if "version" in data or "chunk_versions" in data:
            version = data["version"]
            versions = tuple(data["chunk_versions"])
            chunk_ids = _derive_chunk_ids(base_file_id, versions)
            if tuple(data.get("chunk_ids", chunk_ids)) != chunk_ids:
                raise ValueError("chunk_ids disagree with chunk_versions")
            hashes = tuple(bytes.fromhex(h) for h in data["chunk_hashes"])
        else:
            version, versions, hashes = 0, None, ()
            chunk_ids = tuple(data["chunk_ids"])
        return cls(
            base_file_id=base_file_id,
            total_length=data["total_length"],
            chunk_bytes=data["chunk_bytes"],
            p=data["p"],
            m=data["m"],
            chunk_ids=chunk_ids,
            chunk_lengths=tuple(data["chunk_lengths"]),
            version=version,
            chunk_versions=versions,
            chunk_hashes=hashes,
        )


class ChunkedEncoder:
    """Owner-side pipeline: split, encode every chunk, emit a manifest;
    later, re-encode only the chunks a new file version changed."""

    def __init__(
        self,
        params: CodingParams,
        secret: bytes,
        base_file_id: int,
        field: BinaryField | None = None,
    ):
        self.params = params
        self.secret = secret
        self.base_file_id = base_file_id
        self.field = field if field is not None else GF(params.p)

    def _encoder_for(self, index: int, version: int) -> FileEncoder:
        """The chunk's encoder under the id and sub-secret of ``version``.

        Sub-secrets are per chunk (compromise of one chunk's coefficients
        must not leak siblings') and per version (never reused across
        content versions, see :mod:`repro.rlnc.update`).
        """
        if version == 0:
            secret = derive_key(self.secret, "chunk", index)
        else:
            secret = derive_key(self.secret, "chunk", index, "version", version)
        return FileEncoder(
            self.params,
            secret,
            derive_chunk_id(self.base_file_id, index, version),
            field=self.field,
        )

    def coefficient_generator(self, index: int, version: int = 0) -> CoefficientGenerator:
        """Owner-side generator for chunk ``index`` (used by decoders)."""
        return self._encoder_for(index, version).coefficients

    def _manifest(self, chunks, version: int, chunk_versions) -> FileManifest:
        return FileManifest(
            base_file_id=self.base_file_id,
            total_length=sum(len(c) for c in chunks),
            chunk_bytes=self.params.file_bytes,
            p=self.params.p,
            m=self.params.m,
            chunk_ids=_derive_chunk_ids(self.base_file_id, chunk_versions),
            chunk_lengths=tuple(len(c) for c in chunks),
            version=version,
            chunk_versions=tuple(chunk_versions),
            chunk_hashes=tuple(_chunk_hash(c) for c in chunks),
        )

    def encode_file(
        self,
        data: bytes,
        n_peers: int,
        digest_store: DigestStore | None = None,
    ) -> tuple[FileManifest, list[EncodedFile]]:
        """Version-0 encoding of all chunks for distribution to ``n_peers``."""
        chunks = split_chunks(data, self.params.file_bytes)
        encoded = [
            self._encoder_for(i, 0).encode_bundles(chunk, n_peers, digest_store)
            for i, chunk in enumerate(chunks)
        ]
        return self._manifest(chunks, 0, [0] * len(chunks)), encoded

    def update(
        self,
        old: FileManifest,
        new_data: bytes,
        n_peers: int,
        digest_store: DigestStore | None = None,
    ) -> UpdateResult:
        """Re-encode only the chunks whose content changed.

        Handles growth (new chunks appended), shrinkage (trailing chunks
        retired), and in-place edits.  Every touched chunk gets version
        ``old.version + 1``; untouched chunks keep their version, id and
        peer-stored messages.
        """
        if old.base_file_id != self.base_file_id:
            raise ValueError("manifest belongs to a different file")
        if not old.chunk_hashes:
            raise ValueError(
                "manifest is not versioned: it has no content hashes to diff against"
            )
        new_chunks = split_chunks(new_data, self.params.file_bytes)
        new_version = old.version + 1
        versions: list[int] = []
        changed: list[int] = []
        unchanged: list[int] = []
        reencoded: dict[int, EncodedFile] = {}
        stale: list[int] = []
        upload_bytes = 0

        for i, chunk in enumerate(new_chunks):
            same = (
                i < old.n_chunks
                and old.chunk_lengths[i] == len(chunk)
                and old.chunk_hashes[i] == _chunk_hash(chunk)
            )
            if same:
                versions.append(old.chunk_versions[i])
                unchanged.append(i)
                continue
            versions.append(new_version)
            changed.append(i)
            if i < old.n_chunks:
                stale.append(old.chunk_ids[i])
            encoded = self._encoder_for(i, new_version).encode_bundles(
                chunk, n_peers, digest_store
            )
            reencoded[i] = encoded
            upload_bytes += sum(
                m.wire_size() for bundle in encoded.bundles for m in bundle
            )

        # Trailing chunks removed by shrinkage become stale.
        stale.extend(old.chunk_ids[len(new_chunks):])

        per_message = HEADER_BYTES + self.params.message_bytes
        return UpdateResult(
            manifest=self._manifest(new_chunks, new_version, versions),
            reencoded=reencoded,
            stale_chunk_ids=tuple(stale),
            changed_chunks=tuple(changed),
            unchanged_chunks=tuple(unchanged),
            upload_bytes=upload_bytes,
            full_reencode_bytes=len(new_chunks) * n_peers * self.params.k * per_message,
        )

    def reseed_bundle(
        self,
        manifest: FileManifest,
        chunk_data: bytes,
        chunk_index: int,
        start_id: int,
        digest_store: DigestStore | None = None,
    ) -> tuple[EncodedMessage, ...]:
        """Regenerate one fresh decodable bundle for a chunk.

        Because coded messages are interchangeable, a peer that lost its
        cache (disk failure, churn) is repaired by simply generating a
        *new* bundle of ``k`` messages under unused ids — no need to
        remember or reproduce what the lost peer held.  ``start_id``
        must be beyond every id previously issued for this chunk so the
        fresh rows are (almost surely) new linear combinations.
        """
        version = manifest.chunk_versions[chunk_index]
        encoder = self._encoder_for(chunk_index, version)
        source = encoder.source_matrix(chunk_data)
        ids = encoder.independent_ids(1, start_id=start_id)[0]
        return tuple(encoder.encode_ids(source, ids, digest_store))


class StreamingDecoder:
    """User-side streaming reassembly of a chunked file.

    Messages from any peer, for any chunk, in any order are fed to
    :meth:`offer`; :meth:`pop_ready` yields decoded chunk bytes strictly
    in file order as soon as they become available — the streaming
    behaviour Section III-D is after.  ``source`` is the owner's
    :class:`ChunkedEncoder` or anything with its
    ``coefficient_generator(index, version)``.
    """

    def __init__(
        self,
        manifest: FileManifest,
        source: ChunkedEncoder,
        digest_store: DigestStore | None = None,
    ):
        self.manifest = manifest
        self._decoders: dict[int, ProgressiveDecoder] = {}
        self._index_of: dict[int, int] = {}
        for index, chunk_id in enumerate(manifest.chunk_ids):
            params = manifest.params_for_chunk(index)
            self._decoders[chunk_id] = ProgressiveDecoder(
                params,
                source.coefficient_generator(index, manifest.chunk_versions[index]),
                digest_store=digest_store,
            )
            self._index_of[chunk_id] = index
        self._emitted = 0
        self._results: dict[int, bytes] = {}

    @property
    def n_chunks(self) -> int:
        return self.manifest.n_chunks

    @property
    def is_complete(self) -> bool:
        return all(d.is_complete for d in self._decoders.values())

    def offer(self, message: EncodedMessage) -> Offer:
        """Route a message to its chunk's decoder."""
        decoder = self._decoders.get(message.file_id)
        if decoder is None:
            return Offer.REJECTED
        outcome = decoder.offer(message)
        index = self._index_of[message.file_id]
        if decoder.is_complete and index not in self._results:
            length = self.manifest.chunk_lengths[index]
            self._results[index] = decoder.result(length)
        return outcome

    def pop_ready(self) -> list[bytes]:
        """Decoded chunks that are next in file order (possibly empty)."""
        ready: list[bytes] = []
        while self._emitted in self._results:
            ready.append(self._results[self._emitted])
            self._emitted += 1
        return ready

    def result(self) -> bytes:
        """The whole file; valid once :attr:`is_complete`."""
        if not self.is_complete:
            missing = [
                i
                for cid, i in self._index_of.items()
                if not self._decoders[cid].is_complete
            ]
            raise ValueError(f"chunks not yet decodable: {sorted(missing)}")
        return b"".join(self._results[i] for i in range(self.n_chunks))

    def needed_for_chunk(self, index: int) -> int:
        return self._decoders[self.manifest.chunk_ids[index]].needed

    @property
    def revoked(self) -> int:
        """Rows reported accepted and dropped later at authentication,
        over every chunk (``ProgressiveDecoder.revoked``)."""
        return sum(d.revoked for d in self._decoders.values())

    def settle(self) -> int:
        """Authenticate every chunk's pending rows; returns how many were
        revoked."""
        return sum(d.settle() for d in self._decoders.values())

    def chunk(self, index: int) -> "_ChunkDecoder":
        """Chunk ``index`` as a decoder of its own (a download target)."""
        return _ChunkDecoder(self, self._decoders[self.manifest.chunk_ids[index]])


class _ChunkDecoder:
    """One chunk of a :class:`StreamingDecoder`, shaped like a decoder.

    Completion and ``needed`` are the chunk's; offers go through the
    streaming decoder, which routes by file id and records the chunk's
    bytes the moment it completes.
    """

    def __init__(self, streaming: StreamingDecoder, decoder: ProgressiveDecoder):
        self._streaming = streaming
        self._decoder = decoder

    @property
    def is_complete(self) -> bool:
        return self._decoder.is_complete

    @property
    def needed(self) -> int:
        """Useful messages still missing — read by the repair trigger."""
        return self._decoder.needed

    @property
    def revoked(self) -> int:
        return self._decoder.revoked

    def settle(self) -> int:
        return self._decoder.settle()

    def offer(self, message: EncodedMessage) -> Offer:
        return self._streaming.offer(message)

    def offer_many(self, messages) -> list[Offer]:
        """Same contract as ``ProgressiveDecoder.offer_many``: consume until
        this chunk completes, one outcome per consumed message."""
        outcomes = []
        for message in messages:
            if self.is_complete:
                break
            outcomes.append(self._streaming.offer(message))
        return outcomes
