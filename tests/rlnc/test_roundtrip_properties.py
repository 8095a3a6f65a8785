"""Property-based tests: encode/decode round-trips must be the identity.

Hypothesis drives file contents (including pathological all-zero,
all-0xFF and short inputs), field choices and message mixes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rlnc import (
    BlockDecoder,
    ChunkedEncoder,
    CodingParams,
    EncodedMessage,
    FileEncoder,
    ProgressiveDecoder,
    StreamingDecoder,
    bytes_to_symbols,
    symbols_to_bytes,
)


@given(
    data=st.binary(min_size=0, max_size=300),
    p=st.sampled_from([4, 8, 16, 32]),
)
@settings(max_examples=60, deadline=None)
def test_symbol_packing_roundtrip(data, p):
    symbols = bytes_to_symbols(data, p)
    assert symbols_to_bytes(symbols, p, length=len(data)) == data


@given(
    data=st.binary(min_size=0, max_size=256),
    p=st.sampled_from([8, 16, 32]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_encode_decode_roundtrip(data, p, seed):
    params = CodingParams(p=p, m=16, file_bytes=max(len(data), 1))
    encoder = FileEncoder(params, secret=seed.to_bytes(4, "big") + b"!", file_id=seed)
    encoded = encoder.encode_bundles(data, n_peers=2)
    decoder = BlockDecoder(params, encoder.coefficients)
    assert decoder.decode(encoded.bundles[0], length=len(data)) == data
    assert decoder.decode(encoded.bundles[1], length=len(data)) == data


@given(
    data=st.binary(min_size=1, max_size=200),
    order_seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=30, deadline=None)
def test_progressive_any_arrival_order(data, order_seed):
    params = CodingParams(p=16, m=16, file_bytes=len(data))
    encoder = FileEncoder(params, secret=b"prop", file_id=1)
    encoded = encoder.encode_bundles(data, n_peers=3)
    msgs = encoded.all_messages()
    np.random.default_rng(order_seed).shuffle(msgs)
    decoder = ProgressiveDecoder(params, encoder.coefficients)
    for msg in msgs:
        decoder.offer(msg)
        if decoder.is_complete:
            break
    assert decoder.is_complete
    assert decoder.result(len(data)) == data


@given(
    data=st.binary(min_size=0, max_size=400),
    chunk_bytes=st.sampled_from([64, 128, 256]),
)
@settings(max_examples=25, deadline=None)
def test_chunked_streaming_roundtrip(data, chunk_bytes):
    params = CodingParams(p=16, m=8, file_bytes=chunk_bytes)
    enc = ChunkedEncoder(params, b"prop", base_file_id=5)
    manifest, chunks = enc.encode_file(data, n_peers=2)
    dec = StreamingDecoder(manifest, enc)
    out = b""
    for encoded_file in chunks:
        for msg in encoded_file.bundles[1]:
            dec.offer(msg)
        out += b"".join(dec.pop_ready())
    assert out == data
    assert dec.result() == data


@given(
    payload=st.lists(
        st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=1, max_size=32
    ),
    file_id=st.integers(min_value=0, max_value=(1 << 64) - 1),
    message_id=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
@settings(max_examples=60, deadline=None)
def test_wire_format_roundtrip(payload, file_id, message_id):
    msg = EncodedMessage(
        file_id=file_id,
        message_id=message_id,
        payload=np.array(payload, dtype=np.uint32),
        p=16,
    )
    parsed = EncodedMessage.from_bytes(msg.to_bytes(), p=16)
    assert parsed.file_id == file_id
    assert parsed.message_id == message_id
    assert np.array_equal(parsed.payload, msg.payload)


@given(data=st.binary(min_size=1, max_size=128))
@settings(max_examples=25, deadline=None)
def test_tampering_never_decodes_silently(data):
    """Flipping any symbol of any message either gets rejected (with
    digests) or produces a decode that differs from the original file —
    corruption can never silently round-trip."""
    from repro.security import DigestStore

    params = CodingParams(p=16, m=8, file_bytes=len(data))
    store = DigestStore()
    encoder = FileEncoder(params, secret=b"prop", file_id=9)
    encoded = encoder.encode_bundles(data, n_peers=1, digest_store=store)
    msgs = list(encoded.bundles[0])
    tampered = msgs[0].with_payload(np.asarray(msgs[0].payload) ^ 1)

    guarded = ProgressiveDecoder(params, encoder.coefficients, store)
    # Checked on its own offer when it would complete the rank; admitted
    # pending otherwise, and dropped when the rank is complete.
    assert guarded.offer(tampered).name == ("REJECTED" if params.k == 1 else "ACCEPTED")
    for msg in msgs[1:]:
        guarded.offer(msg)
    assert not guarded.is_complete and guarded.rejected == 1
    assert guarded.offer(msgs[0]).name == "COMPLETE"
    assert guarded.result(len(data)) == data

    unguarded = ProgressiveDecoder(params, encoder.coefficients)
    unguarded.offer(tampered)
    for msg in msgs[1:]:
        unguarded.offer(msg)
    if unguarded.is_complete:
        assert unguarded.result(len(data)) != data
