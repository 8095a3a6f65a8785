"""What one arrival costs ``ProgressiveDecoder``, counted, not timed.

An arrival is one in-place elimination step: reduced in the next free row
of the decoder's own matrix by at most one ``combine``, one ``scale_rows``
and one ``addmul``, none of them through the validating ``mul`` / ``inv``;
its payload is unpacked straight into the decoder's matrix; and once the
bytes are out, the matrices are gone.
"""

import numpy as np
import pytest

from repro.gf.field import TableField
from repro.rlnc import (
    ChunkedEncoder,
    CodingParams,
    EncodedMessage,
    FileEncoder,
    Offer,
    ProgressiveDecoder,
    StreamingDecoder,
)
from repro.rlnc.symbols import bytes_to_symbols, symbols_to_bytes
from repro.security import DigestStore

PARAMS = CodingParams(p=8, m=32, file_bytes=64 * 32)  # k = 64
COUNTED = ("combine", "scale_rows", "addmul", "inv_scalar", "mul", "inv")


class CountingField(TableField):
    """GF(2^8) that counts the calls made on its public surface."""

    def __init__(self):
        super().__init__(8)
        self.calls = dict.fromkeys(COUNTED, 0)


def _counted(name):
    def method(self, *args, **kwargs):
        self.calls[name] += 1
        return getattr(TableField, name)(self, *args, **kwargs)

    return method


for _name in COUNTED:
    setattr(CountingField, _name, _counted(_name))


def _published(rng, extra=0):
    data = rng.bytes(PARAMS.file_bytes)
    encoder = FileEncoder(PARAMS, secret=b"owner", file_id=0xA1)
    store = DigestStore()
    ids = list(encoder.independent_ids(1)[0]) + list(range(5000, 5000 + extra))
    messages = encoder.encode_ids(encoder.source_matrix(data), ids)
    for msg in messages:
        store.record(msg.file_id, msg.message_id, msg.payload_bytes())
    return data, encoder, store, messages


def test_an_arrival_is_at_most_one_call_of_each_kernel(rng):
    data, encoder, store, messages = _published(rng)
    field = CountingField()
    decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, store, field=field)
    for msg in messages:
        before = dict(field.calls)
        assert decoder.offer(msg) in (Offer.ACCEPTED, Offer.COMPLETE)
        spent = {name: field.calls[name] - before[name] for name in COUNTED}
        assert spent["mul"] == spent["inv"] == 0
        assert max(spent.values()) <= 1
        assert spent["inv_scalar"] == spent["scale_rows"]
    # every kernel did run: the bound above is not vacuous
    assert min(field.calls[name] for name in COUNTED[:4]) > PARAMS.k // 2
    assert decoder.result() == data


def test_the_matrices_are_allocated_once_and_written_in_place(rng):
    data, encoder, store, messages = _published(rng)
    decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, store)
    assert decoder._reduced is None  # an idle chunk holds nothing
    decoder.offer(messages[0])
    reduced, payloads, pivots = decoder._reduced, decoder._payloads, decoder._pivots
    for msg in messages[1:63] + messages[:2]:  # 64 more offers, two of them repeats
        decoder.offer(msg)
    assert decoder.rank == PARAMS.k - 1 and decoder.dependent == 2
    assert decoder._reduced is reduced and decoder._payloads is payloads
    assert decoder._pivots is pivots
    assert reduced.shape == (PARAMS.k, 2 * PARAMS.k) and payloads.shape == (PARAMS.k, PARAMS.m)


def test_no_arrival_leaves_symbols_cached_on_the_message(rng):
    data, encoder, store, messages = _published(rng, extra=2)
    wire = messages[5].to_bytes()
    forged = EncodedMessage.from_bytes(wire[:-1] + bytes([wire[-1] ^ 0xFF]), 8)
    decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, store)
    stream = [forged, messages[-1], *messages[:40], messages[3], *messages[40:]]
    outcomes = {decoder.offer(msg) for msg in stream}
    assert outcomes == set(Offer) and decoder.result() == data
    assert all(msg._symbols is None for msg in stream)


@pytest.mark.parametrize("p, m", [(4, 33), (4, 32), (8, 17), (16, 9), (32, 5)])
def test_unpacking_into_a_row_is_the_fresh_array(p, m, rng):
    symbols = rng.integers(0, 1 << p, size=m, dtype=np.uint64).astype(np.uint32)
    packed = symbols_to_bytes(symbols, p)
    matrix = np.full((3, m), 0xFFFFFFFF, dtype=np.uint32)
    row = bytes_to_symbols(packed, p, out=matrix[1])
    assert np.shares_memory(row, matrix) and np.array_equal(matrix[1], symbols)
    assert np.array_equal(matrix[1], bytes_to_symbols(packed, p)[:m])
    assert (matrix[[0, 2]] == 0xFFFFFFFF).all()  # the rows either side untouched
    with pytest.raises(ValueError):
        bytes_to_symbols(packed, p, count=m, out=matrix[1])


def test_forged_and_dependent_arrivals_leave_the_kept_rows_alone(rng):
    """The work row is scratch: what an arrival that is not kept wrote
    there is never read, and the rows below it are not touched."""
    data, encoder, store, messages = _published(rng)
    field, generator = encoder.field, encoder.coefficients
    # a row in the span of the first ten, under an id of its own
    weights = field.random_nonzero(10, rng)
    beta = field.combine(weights, generator.matrix(m.message_id for m in messages[:10]))
    payload = field.combine(weights, np.stack([m.payload for m in messages[:10]]))

    class Spliced:
        """The owner's generator plus that one row."""

        file_id = generator.file_id

        def row(self, message_id):
            return beta if message_id == 999 else generator.row(message_id)

    authentic = EncodedMessage(generator.file_id, 999, payload, 8)
    forged = authentic.with_payload(payload ^ 1)
    decoder = ProgressiveDecoder(PARAMS, Spliced())  # no digests: the forgery gets in
    for msg in messages[:10]:
        decoder.offer(msg)
    kept = decoder._reduced[:10].copy(), decoder._payloads[:10].copy()
    seen = set(decoder._seen_ids)
    for msg, outcome in ((forged, Offer.REJECTED), (authentic, Offer.DEPENDENT)):
        assert decoder.offer(msg) is outcome and decoder.rank == 10
        assert np.array_equal(decoder._reduced[:10], kept[0])
        assert np.array_equal(decoder._payloads[:10], kept[1])
        assert decoder._seen_ids == (seen if msg is forged else seen | {999})
        assert msg._symbols is None
    assert (decoder.inconsistent, decoder.rejected, decoder.dependent) == (1, 1, 1)
    for msg in messages[10:]:
        decoder.offer(msg)
    assert decoder.result() == data


def _matrices(decoder) -> list:
    return [v for v in vars(decoder).values() if isinstance(v, np.ndarray) and v.ndim == 2]


def test_finished_chunk_decoders_keep_bytes_not_matrices(rng):
    params = CodingParams(p=8, m=16, file_bytes=8 * 16)  # k = 8
    data = rng.bytes(16 * params.file_bytes - 3)  # sixteen chunks, the last short
    encoder = ChunkedEncoder(params, b"secret", 0x77)
    digests = DigestStore()
    manifest, chunks = encoder.encode_file(data, 1, digests)
    assert manifest.n_chunks == 16
    streaming = StreamingDecoder(manifest, encoder, digests)
    last = [encoded.bundles[0][-1] for encoded in chunks]
    for encoded in chunks:
        for msg in encoded.bundles[0][:-1]:
            streaming.offer(msg)
    # every chunk one message short: every decoder holds its matrices
    decoders = list(streaming._decoders.values())
    assert all(sorted(a.shape for a in _matrices(d)) == [(8, 16), (8, 16)] for d in decoders)
    for msg in last:
        assert streaming.offer(msg) is Offer.COMPLETE
    assert not any(_matrices(d) for d in decoders)
    assert streaming.result() == data

    # a finished decoder still answers as before
    decoder, encoded = decoders[0], chunks[0]
    counters = (decoder.accepted, decoder.dependent, decoder.rejected, set(decoder._seen_ids))
    assert decoder.offer(encoded.bundles[0][0]) is Offer.COMPLETE
    assert decoder.offer_many(encoded.bundles[0]) == []
    assert (decoder.accepted, decoder.dependent, decoder.rejected, decoder._seen_ids) == counters
    full = decoder.result()
    assert len(full) == params.file_bytes and full == data[: params.file_bytes]
    for length in (0, 1, params.file_bytes - 1, params.file_bytes, params.file_bytes + 9, None):
        assert decoder.result(length) == full[:length]
