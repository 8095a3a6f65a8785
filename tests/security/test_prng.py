"""Unit tests for the keyed deterministic symbol stream."""

import numpy as np
import pytest

from repro.security import SUPPORTED_SYMBOL_BITS, KeyedStream, derive_key


class TestDeriveKey:
    def test_deterministic(self):
        assert derive_key(b"s", "a", 1) == derive_key(b"s", "a", 1)

    def test_sensitive_to_secret(self):
        assert derive_key(b"s1", "a") != derive_key(b"s2", "a")

    def test_sensitive_to_parts(self):
        assert derive_key(b"s", "a", "b") != derive_key(b"s", "ab")
        assert derive_key(b"s", b"ab", b"c") != derive_key(b"s", b"a", b"bc")

    def test_part_types(self):
        # str parts are UTF-8 encoded (so "1" == b"1"); ints use a fixed
        # 16-byte encoding distinct from their decimal string.
        assert derive_key(b"s", "1") == derive_key(b"s", b"1")
        assert derive_key(b"s", 1) != derive_key(b"s", "1")

    def test_output_is_32_bytes(self):
        assert len(derive_key(b"s", "x")) == 32


class TestKeyedStream:
    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            KeyedStream(b"")

    def test_deterministic_bytes(self):
        s = KeyedStream(b"key")
        assert s.bytes_for("label", 100) == s.bytes_for("label", 100)

    def test_prefix_property(self):
        s = KeyedStream(b"key")
        long = s.bytes_for("label", 200)
        assert s.bytes_for("label", 50) == long[:50]

    def test_labels_independent(self):
        s = KeyedStream(b"key")
        assert s.bytes_for("a", 64) != s.bytes_for("b", 64)

    def test_keys_independent(self):
        assert KeyedStream(b"k1").bytes_for("a", 64) != KeyedStream(b"k2").bytes_for(
            "a", 64
        )

    def test_count_zero(self):
        assert KeyedStream(b"k").bytes_for("a", 0) == b""

    @pytest.mark.parametrize("key", [b"k", b"k" * 64, b"k" * 200])  # <, =, > one block
    def test_stream_is_the_spelled_out_construction(self, key):
        # The stream copies one keyed HMAC state per label; the bytes are
        # still SHA256(derive_key(key, label) || counter), label by label
        # and in any order.
        import hashlib
        import struct

        stream = KeyedStream(key)
        for label in (7, "seven", b"\x07", 7, 1 << 100):
            seed = derive_key(key, label)
            blocks = [hashlib.sha256(seed + struct.pack(">Q", t)).digest() for t in range(3)]
            assert stream.bytes_for(label, 70) == b"".join(blocks)[:70]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            KeyedStream(b"k").bytes_for("a", -1)


class TestSymbols:
    @pytest.mark.parametrize("bits", SUPPORTED_SYMBOL_BITS)
    def test_count_and_range(self, bits):
        s = KeyedStream(b"key")
        out = s.symbols("lbl", 1000, bits)
        assert out.shape == (1000,)
        assert out.dtype == np.uint32
        assert int(out.max()) < (1 << bits)

    def test_odd_count_nibbles(self):
        s = KeyedStream(b"key")
        assert s.symbols("lbl", 7, 4).shape == (7,)

    def test_unsupported_width(self):
        with pytest.raises(ValueError):
            KeyedStream(b"k").symbols("a", 10, 12)

    @pytest.mark.parametrize("bits", SUPPORTED_SYMBOL_BITS)
    def test_roughly_uniform(self, bits):
        s = KeyedStream(b"key")
        out = s.symbols("uniform", 4000, bits).astype(np.float64)
        mean = out.mean() / ((1 << bits) - 1)
        assert 0.45 < mean < 0.55

    def test_deterministic(self):
        a = KeyedStream(b"key").symbols("x", 32, 16)
        b = KeyedStream(b"key").symbols("x", 32, 16)
        assert np.array_equal(a, b)


class TestFloats:
    def test_unit_interval(self):
        out = KeyedStream(b"key").floats("f", 500)
        assert np.all(out >= 0.0) and np.all(out < 1.0)

    def test_mean_near_half(self):
        out = KeyedStream(b"key").floats("f", 5000)
        assert 0.47 < out.mean() < 0.53


class TestSymbolsMany:
    @pytest.mark.parametrize("bits", [4, 8, 16, 32])
    @pytest.mark.parametrize("count", [1, 5, 7, 32])
    def test_identical_to_per_label_calls(self, bits, count):
        s = KeyedStream(b"key")
        labels = [0, 3, "x", 2**40, b"raw"]
        batch = s.symbols_many(labels, count, bits)
        singles = np.stack([s.symbols(lab, count, bits) for lab in labels])
        assert batch.tobytes() == singles.tobytes()

    def test_empty_labels(self):
        out = KeyedStream(b"key").symbols_many([], 9, 8)
        assert out.shape == (0, 9)
        assert out.dtype == np.uint32

    def test_unsupported_width_rejected(self):
        with pytest.raises(ValueError):
            KeyedStream(b"key").symbols_many([1], 4, 12)
