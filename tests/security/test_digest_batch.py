"""``DigestStore.record_many``: a ``record`` loop's digests, in one kernel call.

An MD5 batch is hashed by the compiled multi-buffer kernel (``_md5.c``)
where it is live and on hashlib otherwise; SHA-256 always runs on
hashlib.  Either way the stored digests, their order and the returned
list are those of a ``record`` loop, for a list of bytes-like payloads and
for the packed block an encoder hands over.
"""

import copy
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.obs import TRACER, observability
from repro.security import DigestStore, integrity

KIB = 1 << 10
SRC = Path(__file__).resolve().parents[2] / "src"
KERNEL = integrity.load()
LANES = KERNEL.lanes if KERNEL is not None else 4
needs_kernel = pytest.mark.skipif(
    KERNEL is None, reason=f"md5 kernel not live: {native.status()['md5']}"
)


def on_hashlib():
    """Every MD5 batch inside runs on hashlib."""
    return mock.patch.dict(native._LOADED, {"md5": (None, "set by the test suite")})


def payloads(sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.bytes(size) for size in sizes]


def block_of(batch):
    """Equal-length payloads as the frozen ``(n, record)`` block an encoder holds."""
    block = np.frombuffer(b"".join(batch), np.uint8).reshape(len(batch), -1)
    assert not block.flags.writeable
    return block


def record_loop(algorithm, file_id, ids, batch):
    store = DigestStore(algorithm)
    digests = [store.record(file_id, mid, payload) for mid, payload in zip(ids, batch)]
    return store, digests


SHAPES = {
    "64 x 4 KiB": [4 * KIB] * 64,
    "16 x 8 KiB": [8 * KIB] * 16,
    "64 x 8 KiB": [8 * KIB] * 64,
    "4 x 128 KiB": [128 * KIB] * 4,
    "mixed 8-128 KiB": [8 * KIB, 128 * KIB, 40 * KIB, 9 * KIB, 100 * KIB],
    "mixed, one 4 KiB": [128 * KIB, 4 * KIB, 128 * KIB, 128 * KIB],
    "empty": [],
    "one 512 KiB": [512 * KIB],
}


@pytest.mark.parametrize("algorithm", ["md5", "sha256"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_equals_record_loop(shape, seed, algorithm):
    """As a list, and as a block where the lengths are equal."""
    batch = payloads(SHAPES[shape], seed)
    ids = [7 * i + 3 for i in range(len(batch))]
    expected_store, expected = record_loop(algorithm, 0xF11E, ids, batch)
    forms = [batch] + ([block_of(batch)] if len(set(map(len, batch))) == 1 else [])
    for form in forms:
        store = DigestStore(algorithm)
        assert store.record_many(0xF11E, ids, form) == expected
        assert store == expected_store
        assert store.to_dict() == expected_store.to_dict()


@pytest.mark.parametrize("stride", [1, 2])
def test_memoryview_payloads(stride):
    """Read-only slices of one packed product: the owner's tiles
    (``stride`` 1) and every other tile (2)."""
    packed = memoryview(payloads([64 * 128 * KIB])[0])
    views = [packed[i * 128 * KIB : (i + 1) * 128 * KIB] for i in range(0, 64, stride)]
    _, expected = record_loop("md5", 1, range(len(views)), views)
    assert DigestStore().record_many(1, range(len(views)), views) == expected


def test_payload_types():
    """bytes, bytearray, read-only memoryview slices, frozen numpy arrays
    (1-D, and 2-D hashed as their bytes) and the rows of a block, mixed
    in one batch, hash as hashlib hashes them."""
    raw = payloads([300])[0]
    frozen = np.frombuffer(raw, np.uint8)
    words = np.frombuffer(raw[:256], np.uint32).reshape(8, 8)
    batch = [
        raw, bytearray(raw[:77]), memoryview(raw)[5:200], memoryview(raw)[64:64],
        frozen[1:130], words, words[2], block_of([raw[:100], raw[100:200]])[1], b"",
    ]
    expected = [hashlib.md5(payload).digest() for payload in batch]
    assert DigestStore().record_many(1, range(len(batch)), batch) == expected
    with on_hashlib():
        assert DigestStore().record_many(1, range(len(batch)), batch) == expected


@needs_kernel
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(0, 192), st.sampled_from([4 * KIB, 128 * KIB])),
        min_size=1, max_size=2 * LANES + 1,
    ),
    st.integers(0, 2**32 - 1),
)
def test_kernel_matches_hashlib(lengths, seed):
    """Every batch size from 1 to 2 x lanes + 1, each length from 0 to 3
    blocks and 4 KiB and 128 KiB, mixed in one batch."""
    batch = payloads(lengths, seed)
    assert DigestStore().record_many(1, range(len(batch)), batch) == [
        hashlib.md5(payload).digest() for payload in batch
    ]


@pytest.mark.parametrize("n_ids,n_payloads", [(3, 4), (4, 3), (0, 1), (1, 0), (64, 63)])
def test_mismatched_lengths_store_nothing(n_ids, n_payloads):
    store = DigestStore()
    batch = payloads([128 * KIB] * n_payloads)
    with pytest.raises(ValueError):
        store.record_many(1, range(n_ids), batch)
    if batch:
        with pytest.raises(ValueError):
            store.record_many(1, range(n_ids), block_of(batch))
    assert len(store) == 0


def test_re_recording_overwrites_in_first_recorded_order():
    store = DigestStore()
    first, second = payloads([64 * KIB] * 8, seed=1), payloads([64 * KIB] * 8, seed=2)
    store.record_many(9, [5, 4, 3, 2], first[:4])
    store.record_many(4, [0, 1, 2, 3], first[4:])
    store.record_many(9, [2, 3, 4, 5], block_of(second[:4]))
    blob = store.to_dict()
    assert list(blob) == ["9", "4"] and list(blob["9"]) == ["5", "4", "3", "2"]
    assert all(store.verify(9, mid, p) for mid, p in zip([2, 3, 4, 5], second[:4]))
    assert not store.verify(9, 5, first[0])


def test_record_many_starts_no_thread():
    before = threading.active_count()
    store = DigestStore()
    store.record_many(1, range(512), payloads([4 * KIB] * 512))
    store.record_many(2, range(16), block_of(payloads([128 * KIB] * 16)))
    assert threading.active_count() == before


def digest_span_attrs():
    return [
        ev.fields["attrs"]
        for ev in TRACER.events()
        if ev.name == "span.start" and ev.fields["op"] == "security.digest"
    ]


@needs_kernel
def test_digest_span_says_which_path_ran():
    store = DigestStore()
    with observability(tracing=True, reset=True):
        store.record_many(1, range(4), block_of(payloads([128 * KIB] * 4)))
        with on_hashlib():
            store.record_many(2, range(3), payloads([4 * KIB] * 3))
        DigestStore("sha256").record_many(3, range(2), payloads([KIB] * 2))
        attrs = digest_span_attrs()
    assert attrs == [
        {"messages": 4, "bytes": 512 * KIB, "backend": "native"},
        {"messages": 3, "bytes": 12 * KIB, "backend": "hashlib"},
        {"messages": 2, "bytes": 2 * KIB, "backend": "hashlib"},
    ]


@needs_kernel
@pytest.mark.parametrize(
    "off",
    [
        lambda i, lengths: True,
        lambda i, lengths: lengths[i] == 0,
        lambda i, lengths: lengths[i] % 64 >= 56,
        lambda i, lengths: lengths[i] == 4096 + 64,
        lambda i, lengths: i == len(lengths) - 1 == 2 * LANES,
    ],
    ids=["always", "empty", "two-tail-blocks", "4-KiB-plus-a-block", "last-of-2-lanes-plus-1"],
)
def test_one_flipped_bit_is_refused_and_the_batch_falls_back(off):
    class OneBitOff(integrity._MD5Kernel):
        def hash_at(self, addresses, lengths):
            digests = super().hash_at(addresses, lengths)
            return [
                bytes([d[0] ^ 1]) + d[1:] if off(i, lengths) else d
                for i, d in enumerate(digests)
            ]

    off_kernel = copy.copy(KERNEL)
    off_kernel.__class__ = OneBitOff
    assert integrity._self_check(KERNEL) and not integrity._self_check(off_kernel)
    batch = payloads([4 * KIB] * 40 + [100, 0])
    with mock.patch.dict(native._LOADED), mock.patch.object(integrity, "_MD5Kernel", OneBitOff):
        del native._LOADED["md5"]
        with observability(tracing=True, reset=True):
            digests = DigestStore().record_many(1, range(len(batch)), batch)
            attrs = digest_span_attrs()
        assert native.status()["md5"] == "self-check failed"
    assert attrs[0]["backend"] == "hashlib"
    assert digests == [hashlib.md5(payload).digest() for payload in batch]


_NO_NATIVE_CHILD = """
import hashlib, sys
from repro import native
from repro.rlnc import ChunkedEncoder, CodingParams
from repro.security import DigestStore

store = DigestStore()
ChunkedEncoder(CodingParams(p=8, m=4096), b"s", 7).encode_file(bytes(range(256)) * 300, 3, store)
batch = [bytes([i]) * (i * 61) for i in range(40)]
store.record_many(9, range(40), batch)
assert native.status().get("md5") == sys.argv[1], native.status()
print(store.to_dict())
"""


def test_same_digests_without_native():
    """A publish and a mixed batch store the same digests with the
    kernel live and under ``REPRO_NO_NATIVE=1``."""
    runs = {}
    for no_native, why in (("", "ok"), ("1", "disabled by REPRO_NO_NATIVE")):
        if why == "ok" and KERNEL is None:
            continue
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_NO_NATIVE=no_native)
        proc = subprocess.run(
            [sys.executable, "-c", _NO_NATIVE_CHILD, why],
            env=env, timeout=120, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs[no_native] = proc.stdout
    assert len(set(runs.values())) == 1


_WIDTH_CHILD = """
import hashlib, sys
from repro import native
from repro.security import DigestStore, integrity

kernel = integrity.load()
assert native.status()["md5"] == "ok", native.status()
lanes = int(sys.argv[1])  # 0: the host's CPU flags are unknown
assert kernel.lanes in ((lanes,) if lanes else (4, 8, 16)), kernel.lanes
batch = [bytes([i]) * (i * 997 % 9000) for i in range(3 * kernel.lanes + 2)]
assert DigestStore().record_many(1, range(len(batch)), batch) == [
    hashlib.md5(payload).digest() for payload in batch
]
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="the width flags are x86 ones"
)
@pytest.mark.skipif(native._compiler() is None, reason="no C compiler")
@pytest.mark.parametrize("cflags, widest", [("", 16), ("-mno-avx512f", 8), ("-mno-avx", 4)])
def test_every_lane_count_builds_and_matches_hashlib(cflags, widest, cpu_flags):
    """The kernel is as many lanes wide as the flags and the host CPU
    allow (16 under AVX-512F, 8 under AVX, 4 on SSE2), and each build
    passes its self-check and hashes a mixed batch as hashlib does."""
    lanes = next(
        (n for n, feature in ((16, "avx512f"), (8, "avx"), (4, "sse2"))
         if n <= widest and feature in cpu_flags),
        0,
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_NATIVE_CFLAGS=cflags)
    env.pop("REPRO_NO_NATIVE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _WIDTH_CHILD, str(lanes)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def _golden_tool():
    path = Path(__file__).resolve().parents[2] / "tools" / "gen_golden_publish.py"
    spec = importlib.util.spec_from_file_location("gen_golden_publish", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@needs_kernel
def test_golden_cells_hash_on_the_kernel():
    """The pinned p = 32 (16 x 128 KiB per chunk, 3 chunks) and p = 8
    (4 KiB messages) publishes hash every chunk's batch on the kernel, as
    one block, and still reproduce their digests."""
    golden = _golden_tool()
    fixture = json.loads(golden.FIXTURE.read_text())["publish"]
    for p, m, file_bytes, n_peers in golden.POINTS[:2]:
        with observability(tracing=True, reset=True):
            cell = golden.publish_point(p, m, file_bytes, n_peers)
            backends = {attrs["backend"] for attrs in digest_span_attrs()}
        assert backends == {"native"}
        assert cell == fixture[f"p{p}-m{m}-f{file_bytes}-n{n_peers}"]


def test_digest_is_hashlib_of_the_payload():
    batch = payloads([128 * KIB] * 4)
    assert DigestStore().record_many(1, range(4), batch) == [
        hashlib.md5(p).digest() for p in batch
    ]
