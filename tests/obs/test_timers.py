"""The four module-level timers are plain registry histograms.

Each is observed once per call of the function it times while the
registry is enabled, never while it is disabled, and is listed by
``repro stats`` like every other metric.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.gf import GF, random_invertible, row_reduce, solve
from repro.obs import REGISTRY
from repro.rlnc import BlockDecoder, CodingParams, FileEncoder

PARAMS = CodingParams(p=8, m=16, file_bytes=128)  # k = 8
FIELD = GF(8)


def _solve():
    rng = np.random.default_rng(5)
    a = random_invertible(FIELD, 4, rng)
    solve(FIELD, a, FIELD.random((4, 3), rng))


def _row_reduce():
    row_reduce(FIELD, FIELD.random((4, 6), np.random.default_rng(6)))


def _encoder():
    return FileEncoder(PARAMS, secret=b"owner", file_id=0xF00D)


def _encode():
    encoder = _encoder()
    encoder.encode_ids(encoder.source_matrix(bytes(range(100))), range(PARAMS.k))


def _block_decode():
    encoder = _encoder()
    data = bytes(range(100))
    messages = encoder.encode_ids(encoder.source_matrix(data), range(PARAMS.k))
    decoded = BlockDecoder(PARAMS, encoder.coefficients).decode(messages, len(data))
    assert decoded == data


TIMERS = {
    "repro.gf.solve.ns": _solve,
    "repro.gf.row_reduce.ns": _row_reduce,
    "repro.rlnc.encode.ns": _encode,
    "repro.rlnc.decode.block_ns": _block_decode,
}


@pytest.mark.parametrize("name", sorted(TIMERS))
def test_one_observation_per_call_only_when_enabled(name, capsys):
    call = TIMERS[name]
    histogram = REGISTRY.get(name)

    REGISTRY.enabled = False
    call()
    assert histogram.count == 0

    REGISTRY.enabled = True
    call()
    assert histogram.count == 1
    call()
    assert histogram.count == 2
    assert histogram.snapshot()["min"] > 0

    REGISTRY.enabled = False
    assert main(["stats", "--format", "json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot[name]["kind"] == "histogram"
