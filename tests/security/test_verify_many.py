"""``DigestStore.verify_many``: a ``verify`` loop's verdicts, hashed as a batch.

The batch goes where ``record_many``'s goes (the multi-buffer MD5 kernel
where it is live, hashlib otherwise, SHA-256 always on hashlib), so the
verdicts must be those of one ``verify`` per message whatever the form
of the payloads: a 2-D block read in place, as a decoder hands over its
rows, or a list of bytes-likes.  The decoder's use of it hashes each
offered message at most once.
"""

import collections
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.obs import TRACER, observability
from repro.rlnc import CodingParams, EncodedMessage, FileEncoder, ProgressiveDecoder
from repro.security import DigestStore, integrity

FILE_ID = 0xCAFE


def on_hashlib():
    """Every MD5 batch inside runs on hashlib."""
    return mock.patch.dict(native._LOADED, {"md5": (None, "set by the test suite")})


def _store(algorithm, payloads):
    store = DigestStore(algorithm)
    for message_id, payload in enumerate(payloads):
        store.record(FILE_ID, message_id, payload)
    return store


@pytest.mark.parametrize("algorithm", ["md5", "sha256"])
@pytest.mark.parametrize("backend", ["default", "hashlib"])
@settings(max_examples=30, deadline=None)
@given(
    count=st.integers(0, 40),
    size=st.sampled_from([0, 1, 63, 64, 4 << 10, 9000]),
    tampered=st.sets(st.integers(0, 39)),
    unknown=st.sets(st.integers(0, 39)),
    seed=st.integers(0, 2**32 - 1),
)
def test_equals_verify_loop(algorithm, backend, count, size, tampered, unknown, seed):
    """Tampered rows at random positions and ids the store does not
    hold, as a 2-D block and as a list; an empty batch is ``[]``."""
    rng = np.random.default_rng(seed)
    block = rng.integers(0, 256, size=(count, size), dtype=np.uint8)
    store = _store(algorithm, block)
    if size:
        for i in tampered:
            if i < count:
                block[i, int(rng.integers(size))] ^= 1 << int(rng.integers(8))
    ids = [i + 10_000 if i in unknown else i for i in range(count)]
    expected = [store.verify(FILE_ID, mid, row) for mid, row in zip(ids, block)]
    assert not any(expected[i] for i in unknown if i < count)
    with on_hashlib() if backend == "hashlib" else nullcontext():
        assert store.verify_many(FILE_ID, ids, block) == expected
        assert store.verify_many(FILE_ID, ids, [row.tobytes() for row in block]) == expected
        assert store.verify_many(FILE_ID, iter(ids), list(block)) == expected


def test_empty_batch():
    store = _store("md5", [b"x"])
    assert store.verify_many(FILE_ID, [], []) == []
    assert store.verify_many(FILE_ID, [], np.empty((0, 16), np.uint8)) == []


@pytest.mark.parametrize("n_ids,n_payloads", [(3, 4), (4, 3), (0, 1), (1, 0)])
def test_mismatched_lengths_raise(n_ids, n_payloads):
    store = _store("md5", [bytes(8)] * 4)
    block = np.zeros((n_payloads, 8), np.uint8)
    with pytest.raises(ValueError):
        store.verify_many(FILE_ID, range(n_ids), block)
    with pytest.raises(ValueError):
        store.verify_many(FILE_ID, range(n_ids), list(block))


def test_rows_of_a_larger_block_are_read_in_place():
    """A decoder hands over ``_payloads[lo:rank]``: a C-contiguous slice
    of its records, with other rows either side."""
    rng = np.random.default_rng(5)
    records = rng.integers(0, 256, size=(12, 4096), dtype=np.uint8)
    store = _store("md5", records)
    records[7, 100] ^= 0xFF
    assert store.verify_many(FILE_ID, range(3, 9), records[3:9]) == [
        True, True, True, True, False, True,
    ]


def test_verify_span_says_which_path_ran():
    payloads = [bytes([i]) * 1024 for i in range(4)]
    store = _store("md5", payloads)
    with observability(tracing=True, reset=True):
        store.verify_many(FILE_ID, range(4), payloads)
        with on_hashlib():
            store.verify_many(FILE_ID, range(2), payloads[:2])
        store.verify_many(FILE_ID, [3], payloads[3:])  # one lane: hashlib
        attrs = [
            ev.fields["attrs"]
            for ev in TRACER.events()
            if ev.name == "span.start" and ev.fields["op"] == "security.verify"
        ]
    backend = "native" if integrity.load() is not None else "hashlib"
    assert attrs == [
        {"messages": 4, "bytes": 4096, "backend": backend},
        {"messages": 2, "bytes": 2048, "backend": "hashlib"},
        {"messages": 1, "bytes": 1024, "backend": "hashlib"},
    ]


def _hashed_payloads():
    """Patch both hashers; returns the list every hashed payload's bytes
    are appended to."""
    seen = []
    digest, kernel_digests = DigestStore._digest, integrity._MD5Kernel.digests

    def counting_digest(self, payload):
        seen.append(bytes(payload))
        return digest(self, payload)

    def counting_kernel(self, payloads, block):
        seen.extend(bytes(payload) for payload in payloads)
        return kernel_digests(self, payloads, block)

    patches = (
        mock.patch.object(DigestStore, "_digest", counting_digest),
        mock.patch.object(integrity._MD5Kernel, "digests", counting_kernel),
    )
    return seen, patches


@pytest.mark.parametrize("backend", ["default", "hashlib"])
def test_decoder_hashes_each_offered_message_at_most_once(backend, rng):
    """Honest, forged, duplicate and unknown-id arrivals, offered in
    batches: no payload is hashed more often than it was offered."""
    params = CodingParams(p=8, m=64, file_bytes=64 * 16)  # k = 16
    encoder = FileEncoder(params, b"owner", file_id=FILE_ID)
    store = DigestStore()
    data = rng.bytes(1000)
    messages = encoder.encode_bundles(data, 2, store).all_messages()
    forged = [m.with_payload(np.asarray(m.payload) ^ 3) for m in messages[:6:2]]
    unknown = [
        EncodedMessage(FILE_ID, m.message_id + 500, m.payload, m.p) for m in messages[-2:]
    ]
    stream = [*forged, messages[1], *unknown, *messages]
    rng.shuffle(stream)
    seen, patches = _hashed_payloads()
    decoder = ProgressiveDecoder(params, encoder.coefficients, store)
    offered = []
    with patches[0], patches[1], on_hashlib() if backend == "hashlib" else nullcontext():
        for start in range(0, len(stream), 5):
            batch = stream[start : start + 5]
            consumed = decoder.offer_many(batch)
            offered += [bytes(m.payload_bytes()) for m in batch[: len(consumed)]]
    assert decoder.is_complete and seen
    hashed, counts = collections.Counter(seen), collections.Counter(offered)
    assert all(hashed[payload] <= counts[payload] for payload in hashed)
    assert decoder.result(len(data)) == data
