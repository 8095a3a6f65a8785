"""1 MB chunking and streaming (Section III-D).

Large files are divided into 1 MB sub-files, each encoded independently
with its own derived file-id, so (a) ``k`` stays small enough for
real-time decoding and (b) audio/video can be *streamed*: each chunk
becomes playable as soon as its own ``k`` messages arrive, instead of
waiting for the entire file.  The user carries a small manifest
recording how the chunks fit back together.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..gf import BinaryField
from ..security.integrity import DigestStore
from ..security.prng import derive_key
from .coefficients import CoefficientGenerator
from .decoder import Offer, ProgressiveDecoder
from .encoder import EncodedFile, FileEncoder
from .message import EncodedMessage
from .params import ONE_MEGABYTE, CodingParams

__all__ = [
    "derive_chunk_id",
    "split_chunks",
    "FileManifest",
    "ChunkedEncoder",
    "StreamingDecoder",
]


def derive_chunk_id(base_file_id: int, index: int) -> int:
    """Stable 64-bit file-id for chunk ``index`` of a large file.

    Chunk 0 keeps the base id (a small file *is* its only chunk); later
    chunks hash the pair so ids cannot collide by arithmetic accident.
    """
    if index == 0:
        return base_file_id
    material = base_file_id.to_bytes(8, "big") + index.to_bytes(8, "big")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def split_chunks(data: bytes, chunk_bytes: int = ONE_MEGABYTE) -> list[bytes]:
    """Split ``data`` into fixed-size chunks (last one may be short)."""
    if chunk_bytes < 1:
        raise ValueError(f"chunk size must be positive, got {chunk_bytes}")
    if not data:
        return [b""]
    return [data[i : i + chunk_bytes] for i in range(0, len(data), chunk_bytes)]


@dataclass(frozen=True)
class FileManifest:
    """The metadata a user carries to reassemble a chunked file.

    This is the paper's "additional information about how such 1MB files
    fit together into a large file" plus the per-chunk byte lengths
    needed to strip padding.
    """

    base_file_id: int
    total_length: int
    chunk_bytes: int
    p: int
    m: int
    chunk_ids: tuple[int, ...]
    chunk_lengths: tuple[int, ...]

    def __post_init__(self):
        if len(self.chunk_ids) != len(self.chunk_lengths):
            raise ValueError("chunk_ids and chunk_lengths must align")
        if sum(self.chunk_lengths) != self.total_length:
            raise ValueError("chunk lengths do not sum to the total length")

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_ids)

    def params_for_chunk(self, index: int) -> CodingParams:
        return CodingParams(p=self.p, m=self.m, file_bytes=self.chunk_bytes)

    def to_dict(self) -> dict:
        """JSON-serialisable form (what the user actually carries)."""
        return {
            "base_file_id": self.base_file_id,
            "total_length": self.total_length,
            "chunk_bytes": self.chunk_bytes,
            "p": self.p,
            "m": self.m,
            "chunk_ids": list(self.chunk_ids),
            "chunk_lengths": list(self.chunk_lengths),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FileManifest":
        return cls(
            base_file_id=data["base_file_id"],
            total_length=data["total_length"],
            chunk_bytes=data["chunk_bytes"],
            p=data["p"],
            m=data["m"],
            chunk_ids=tuple(data["chunk_ids"]),
            chunk_lengths=tuple(data["chunk_lengths"]),
        )


class ChunkedEncoder:
    """Owner-side pipeline: split, encode every chunk, emit a manifest."""

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
        self.field = field

    def encode_file(
        self,
        data: bytes,
        n_peers: int,
        digest_store: DigestStore | None = None,
    ) -> tuple[FileManifest, list[EncodedFile]]:
        """Encode all chunks for distribution to ``n_peers`` peers."""
        chunks = split_chunks(data, self.params.file_bytes)
        encoded: list[EncodedFile] = []
        ids: list[int] = []
        for index, chunk in enumerate(chunks):
            chunk_id = derive_chunk_id(self.base_file_id, index)
            ids.append(chunk_id)
            encoder = FileEncoder(
                self.params,
                self._chunk_secret(index),
                chunk_id,
                field=self.field,
            )
            encoded.append(encoder.encode_bundles(chunk, n_peers, digest_store))
        manifest = FileManifest(
            base_file_id=self.base_file_id,
            total_length=len(data),
            chunk_bytes=self.params.file_bytes,
            p=self.params.p,
            m=self.params.m,
            chunk_ids=tuple(ids),
            chunk_lengths=tuple(len(c) for c in chunks),
        )
        return manifest, encoded

    def _chunk_secret(self, index: int) -> bytes:
        """Per-chunk sub-secret; compromise of one chunk's coefficients
        must not leak siblings'."""
        return derive_key(self.secret, "chunk", index)

    def coefficient_generator(self, index: int) -> CoefficientGenerator:
        """Owner-side generator for chunk ``index`` (used by decoders)."""
        from ..gf import GF

        field = self.field if self.field is not None else GF(self.params.p)
        return CoefficientGenerator(
            field,
            self.params.k,
            self._chunk_secret(index),
            derive_chunk_id(self.base_file_id, index),
        )


class StreamingDecoder:
    """User-side streaming reassembly of a chunked file.

    Messages from any peer, for any chunk, in any order are fed to
    :meth:`offer`; :meth:`pop_ready` yields decoded chunk bytes strictly
    in file order as soon as they become available — the streaming
    behaviour Section III-D is after.
    """

    def __init__(
        self,
        manifest: FileManifest,
        chunked_encoder: ChunkedEncoder,
        digest_store: DigestStore | None = None,
    ):
        self.manifest = manifest
        self._decoders: dict[int, ProgressiveDecoder] = {}
        self._index_of: dict[int, int] = {}
        for index, chunk_id in enumerate(manifest.chunk_ids):
            params = manifest.params_for_chunk(index)
            self._decoders[chunk_id] = ProgressiveDecoder(
                params,
                chunked_encoder.coefficient_generator(index),
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
