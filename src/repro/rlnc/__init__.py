"""Random linear coding layer (Section III): encode, store, decode, stream.

Typical owner-side flow::

    from repro.rlnc import CodingParams, FileEncoder
    from repro.security import DigestStore

    params = CodingParams(p=32, m=32768)        # the paper's example point
    store = DigestStore()
    encoder = FileEncoder(params, secret=b"...", file_id=0xCAFE)
    encoded = encoder.encode_bundles(data, n_peers=8, digest_store=store)

and user-side::

    from repro.rlnc import ProgressiveDecoder

    decoder = ProgressiveDecoder(params, encoder.coefficients, store)
    for message in arriving_messages:
        decoder.offer(message)
        if decoder.is_complete:
            break
    data = decoder.result(length)
"""

from .chunking import (
    ChunkedEncoder,
    FileManifest,
    StreamingDecoder,
    derive_chunk_id,
    split_chunks,
)
from .coefficients import CoefficientGenerator, UnknownCoefficientError
from .decoder import BlockDecoder, DecodeError, Offer, ProgressiveDecoder
from .encoder import EncodedFile, FileEncoder
from .message import HEADER_BYTES, EncodedMessage, MessageFormatError
from .params import (
    ONE_MEGABYTE,
    PAPER_EXAMPLE,
    TABLE1_FIELD_BITS,
    TABLE1_MESSAGE_LENGTHS,
    CodingParams,
    table1_grid,
)
from .symbols import bytes_to_symbols, reshape_file_matrix, symbols_to_bytes
from .update import UpdateResult

__all__ = [
    "CodingParams",
    "table1_grid",
    "TABLE1_FIELD_BITS",
    "TABLE1_MESSAGE_LENGTHS",
    "ONE_MEGABYTE",
    "PAPER_EXAMPLE",
    "CoefficientGenerator",
    "UnknownCoefficientError",
    "FileEncoder",
    "EncodedFile",
    "BlockDecoder",
    "ProgressiveDecoder",
    "Offer",
    "DecodeError",
    "EncodedMessage",
    "MessageFormatError",
    "HEADER_BYTES",
    "ChunkedEncoder",
    "StreamingDecoder",
    "FileManifest",
    "derive_chunk_id",
    "split_chunks",
    "bytes_to_symbols",
    "symbols_to_bytes",
    "reshape_file_matrix",
    "UpdateResult",
]
