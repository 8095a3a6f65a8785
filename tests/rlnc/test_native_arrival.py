"""``ProgressiveDecoder`` on the compiled arrival step against the same
decoder on the numpy body, offer by offer.

The decoder picks its elimination once, at construction: compiled for a
table field or the tower when the ``gfmul`` library is live, numpy
otherwise.  Two
decoders built either side of that choice see one stream — fresh
messages, duplicates, repaired messages in the span of their helpers,
forged payloads that only the residual check catches, and repair-range
ids no record registers — and must agree on every outcome, counter,
rank, pivot and kept row, and on the bytes.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.gf import bitmatmul
from repro.repair.recombine import RepairableCoefficients, RepairRecord, recombine
from repro.rlnc import CodingParams, FileEncoder, Offer, ProgressiveDecoder

pytestmark = pytest.mark.skipif(bitmatmul.load() is None, reason="native GF kernel not live")

M = 6
FILE_ID = 0xA77
KINDS = ("duplicate", "dependent", "forged", "unregistered_repair")


def _flip(msg):
    payload = np.array(msg.payload)
    payload[0] ^= 1
    return msg.with_payload(payload)


@lru_cache(maxsize=None)
def _world(p, k):
    params = CodingParams(p=p, m=M, file_bytes=k * M * p // 8)
    assert params.k == k
    rng = np.random.default_rng(7 * p + k)
    data = rng.bytes(params.file_bytes)
    encoder = FileEncoder(params, secret=b"owner", file_id=FILE_ID)
    # Sequential ids, unscreened: at p = 4 some are dependent by chance.
    fresh = encoder.encode_ids(encoder.source_matrix(data), range(k + k // 4 + 4))
    helpers = fresh[: min(max(k - 1, 1), 4)]
    helper_ids = tuple(m.message_id for m in helpers)
    registered = RepairRecord(FILE_ID, 0, helper_ids, min(len(helpers), 2))
    unregistered = RepairRecord(FILE_ID, 1, helper_ids, 1)
    dependent = recombine(registered, helpers, encoder.field)
    pools = {
        "fresh": fresh,
        "duplicate": fresh,
        "dependent": dependent,
        "forged": [_flip(m) for m in dependent],
        "unregistered_repair": recombine(unregistered, helpers, encoder.field),
    }
    return params, encoder, registered, pools, data


def _decoder(params, coefficients, backend):
    entry = native._LOADED["gfmul"] if backend == "native" else (None, "numpy forced")
    with mock.patch.dict(native._LOADED, {"gfmul": entry}):
        return ProgressiveDecoder(params, coefficients)  # no digests: forgeries get in


@pytest.mark.parametrize("p", [4, 8, 16, 32])
@given(
    k=st.sampled_from([1, 2, 16, 64, 130]),
    picks=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 255)), max_size=20),
    seed=st.integers(0, 2**32 - 1),
    helpers_first=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_every_offer_agrees(p, k, picks, seed, helpers_first):
    params, encoder, record, pools, data = _world(p, k)
    coefficients = RepairableCoefficients(encoder.coefficients, [record])
    stream = list(pools["fresh"]) + [pools[kind][i % len(pools[kind])] for kind, i in picks]
    np.random.default_rng(seed).shuffle(stream)
    if helpers_first:  # then every repaired or forged arrival cancels
        stream.sort(key=lambda m: m.message_id not in record.helper_ids)
    numpy_dec, native_dec = (_decoder(params, coefficients, b) for b in ("numpy", "native"))
    for msg in stream:
        outcome = numpy_dec.offer(msg)
        assert native_dec.offer(msg) is outcome
        for attr in ("rank", "accepted", "dependent", "rejected", "inconsistent", "_seen_ids"):
            assert getattr(native_dec, attr) == getattr(numpy_dec, attr), attr
        rank = numpy_dec.rank
        assert native_dec._pivots[:rank].tolist() == numpy_dec._pivots[:rank].tolist()
        if numpy_dec._reduced is not None:
            assert native_dec._reduced[:rank].tobytes() == numpy_dec._reduced[:rank].tobytes()
        if outcome is Offer.COMPLETE:
            break
    assert native_dec.is_complete == numpy_dec.is_complete
    if numpy_dec.is_complete:
        decoded = native_dec.result()
        assert decoded == numpy_dec.result()
        # A forgery that arrives before its helpers span it is innovative
        # to any decoder without digests; after them it is caught.
        assert decoded == data or not helpers_first
