"""``KeyedStream.symbols_many`` on the compiled keyed-stream kernel.

A batch of integer labels below ``2^64`` under a key of at most 64 bytes
is drawn in one call to ``_sha256.c`` where the kernel is live; every
other label, longer keys and single rows stay on hmac/hashlib.  Either
way the rows are those of a per-label :meth:`KeyedStream.bytes_for`
loop (``golden_keyed.json`` pins them across backends).
"""

import copy
import gc
import hashlib
import os
import platform
import re
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
from repro.security import SUPPORTED_SYMBOL_BITS, KeyedStream, derive_key, prng

SRC = Path(__file__).resolve().parents[2] / "src"
KERNEL = prng.load()
LANES = KERNEL.lanes if KERNEL is not None else 4
needs_kernel = pytest.mark.skipif(
    KERNEL is None, reason=f"keyed-stream kernel not live: {native.status()['sha256']}"
)


def on_hashlib():
    """Every batch inside runs on hashlib."""
    return mock.patch.dict(native._LOADED, {"sha256": (None, "set by the test suite")})


def looped(stream, labels, per):
    return b"".join(stream.bytes_for(label, per) for label in labels)


class Counting:
    """A facade that forwards to ``inner`` and counts its calls."""

    def __init__(self, inner):
        self.inner = inner
        self.lanes = inner.lanes
        self.calls = 0

    def stream(self, key, labels, per):
        self.calls += 1
        return self.inner.stream(key, labels, per)


def counting():
    kernel = Counting(KERNEL)
    return kernel, mock.patch.dict(native._LOADED, {"sha256": (kernel, "ok")})


labels_u64 = st.integers(0, (1 << 64) - 1)


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=1, max_size=64),
    labels=st.lists(
        st.one_of(st.sampled_from([0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]), labels_u64),
        min_size=1, max_size=2 * LANES + 1,
    ),
    per=st.one_of(st.integers(0, 100), st.sampled_from([31, 32, 33, 64, 65, 1025])),
)
def test_kernel_matches_hashlib(key, labels, per):
    """Keys of every length the kernel takes, labels from both ends of
    ``[0, 2^64)``, batches of 1 to 2 x lanes + 1, rows of 0 to 1,025 bytes."""
    got = KERNEL.stream(key, np.array(labels, np.uint64), per)
    assert got.shape == (len(labels), per)
    assert got.tobytes() == looped(KeyedStream(key), labels, per)


@needs_kernel
@pytest.mark.parametrize("n", [63, 64, 65, 129, 512])
def test_batches_across_label_chunks(n):
    key = b"\x5a" * 32
    labels = [(1 << 64) - 1 - 977 * i for i in range(n)]
    got = KERNEL.stream(key, np.array(labels, np.uint64), 3)
    assert got.tobytes() == looped(KeyedStream(key), labels, 3)


@needs_kernel
def test_one_long_stream():
    """One label's 1 MiB: its blocks are spread over every lane."""
    stream = KeyedStream(b"k" * 32)
    got = KERNEL.stream(stream.key, np.array([1 << 63], np.uint64), (1 << 20) + 7)
    assert got.tobytes() == stream.bytes_for(1 << 63, (1 << 20) + 7)


@needs_kernel
@pytest.mark.parametrize("key, per", [(b"", 8), (bytes(65), 8), (b"k", -1)])
def test_kernel_refuses_what_it_does_not_take(key, per):
    with pytest.raises(ValueError):
        KERNEL.stream(key, np.array([1], np.uint64), per)


@needs_kernel
@pytest.mark.parametrize("bits", SUPPORTED_SYMBOL_BITS)
@pytest.mark.parametrize("count", [1, 33, 64])
def test_symbols_many_is_one_kernel_call(bits, count):
    stream = KeyedStream(b"s" * 32)
    kernel, live = counting()
    with live:
        rows = stream.symbols_many(range(40), count, bits)
    assert kernel.calls == 1
    assert np.array_equal(rows, np.stack([stream.symbols(i, count, bits) for i in range(40)]))


@needs_kernel
@pytest.mark.parametrize(
    "key, labels",
    [
        (b"k" * 65, [1, 2, 3]),  # HMAC hashes a longer key first
        (b"k", [1, 1 << 64]),
        (b"k", [1, "one"]),
        (b"k", [b"\x01", 2]),
        (b"k", [1, 2.0]),
        (b"k", [True, 2]),
    ],
    ids=["65-byte-key", "2^64", "str", "bytes", "float", "bool"],
)
def test_what_the_kernel_does_not_take_stays_on_hashlib(key, labels):
    stream = KeyedStream(key)
    kernel, live = counting()
    with live:
        if any(isinstance(label, float) for label in labels):
            with pytest.raises(TypeError):
                stream.symbols_many(labels, 8, 8)
            return
        rows = stream.symbols_many(labels, 8, 8)
    assert kernel.calls == 0
    assert rows.tobytes() == np.stack([stream.symbols(label, 8, 8) for label in labels]).tobytes()


@needs_kernel
def test_negative_label_raises_as_on_hashlib():
    stream = KeyedStream(b"k")
    with pytest.raises(OverflowError):
        stream.symbols_many([1, -1], 8, 8)
    with on_hashlib(), pytest.raises(OverflowError):
        stream.symbols_many([1, -1], 8, 8)


@needs_kernel
def test_single_rows_stay_on_hashlib():
    stream = KeyedStream(b"k" * 32)
    kernel, live = counting()
    with live:
        stream.symbols(5, 64, 8)
        stream.bytes_for(5, 64)
    assert kernel.calls == 0


@needs_kernel
def test_self_check_refuses_a_kernel_one_bit_off():
    class OneBitOff(prng._StreamKernel):
        def stream(self, key, labels, per):
            out = super().stream(key, labels, per)
            if out.size:
                out[-1, -1] ^= 1
            return out

    off = copy.copy(KERNEL)
    off.__class__ = OneBitOff
    assert prng._self_check(KERNEL) and not prng._self_check(off)
    stream = KeyedStream(b"k" * 32)
    with mock.patch.dict(native._LOADED), mock.patch.object(prng, "_StreamKernel", OneBitOff):
        del native._LOADED["sha256"]
        rows = stream.symbols_many(range(20), 16, 8)
        assert native.status()["sha256"] == "self-check failed"
    assert rows.tobytes() == np.stack([stream.symbols(i, 16, 8) for i in range(20)]).tobytes()


# -- key hygiene -------------------------------------------------------------


def _holds(obj, needles, depth=3) -> bool:
    """Whether ``obj`` or anything it references, ``depth`` levels down,
    is or contains one of the ``needles`` (bytes)."""
    if isinstance(obj, (bytes, bytearray, memoryview, np.ndarray)):
        raw = bytes(obj) if not isinstance(obj, np.ndarray) else obj.tobytes()
        return any(needle in raw for needle in needles)
    if isinstance(obj, str):
        return any(needle.hex() in obj for needle in needles)
    if depth == 0:
        return False
    return any(_holds(ref, needles, depth - 1) for ref in gc.get_referents(obj))


@needs_kernel
def test_facade_and_status_hold_no_key_material():
    """The key crosses into C on every call: the facade keeps only its
    lane count and function pointers, the loader's memo only its verdict,
    and neither references the key, its HMAC pad blocks, a label's seed
    or a stream block."""
    key = hashlib.sha256(b"a coefficient key").digest()
    stream = KeyedStream(key)
    stream.symbols_many(range(64), 64, 8)
    padded = key.ljust(64, b"\0")
    pads = [bytes(b ^ pad for b in padded) for pad in (0x36, 0x5C)]
    needles = [key, *pads, derive_key(key, 0), stream.bytes_for(0, 32)]
    assert set(vars(KERNEL)) == set(prng._StreamKernel.SIGNATURES)
    assert not _holds(KERNEL, needles)
    assert not _holds(native.status(), needles)
    assert not _holds(native._LOADED["sha256"], needles)


def test_kernel_source_keeps_no_mutable_static():
    """Every ``static`` object in ``_sha256.c`` is ``const``: no midstate
    or key can outlive a call, and concurrent calls share nothing."""
    text = prng._SOURCE.read_text()
    for line in text.splitlines():
        if re.match(r"\s*static\b", line):
            assert re.match(r"\s*static\s+(const\b|inline\b|void\b)", line), line


@needs_kernel
def test_concurrent_calls_with_different_keys():
    """ctypes releases the GIL; calls under different keys on more
    threads than cores each get their own key's rows."""
    keys = [bytes([i + 1]) * (16 + 16 * (i % 3)) for i in range(4)]
    labels = np.arange(300, dtype=np.uint64)
    expected = [looped(KeyedStream(key), labels.tolist(), 40) for key in keys]
    wrong = []

    def work(i):
        for _ in range(20):
            if KERNEL.stream(keys[i], labels, 40).tobytes() != expected[i]:
                wrong.append(i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(keys))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


# -- builds ------------------------------------------------------------------


_WIDTH_CHILD = """
import sys
import numpy as np
from repro import native
from repro.security import KeyedStream, prng

kernel = prng.load()
assert native.status()["sha256"] == "ok", native.status()
lanes = int(sys.argv[1])  # 0: the host's CPU flags are unknown
assert kernel.lanes in ((lanes,) if lanes else (4, 8, 16)), kernel.lanes
stream = KeyedStream(b"w" * 40)
labels = [(1 << 64) - 1 - 31 * i for i in range(3 * kernel.lanes + 2)]
assert kernel.stream(stream.key, np.array(labels, np.uint64), 75).tobytes() == b"".join(
    stream.bytes_for(label, 75) for label in labels
)
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="the width flags are x86 ones"
)
@pytest.mark.skipif(native._compiler() is None, reason="no C compiler")
@pytest.mark.parametrize("cflags, widest", [("", 16), ("-mno-avx512f", 8), ("-mno-avx", 4)])
def test_every_lane_count_builds_and_matches_hashlib(cflags, widest, cpu_flags):
    """The kernel is as many lanes wide as the flags and the host CPU
    allow (16 under AVX-512F, 8 under AVX, 4 on SSE2), and each build
    passes its self-check and draws a batch as hashlib does."""
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
