"""Unit tests for RSA key material.

``golden_keys.json`` was generated by ``tools/gen_golden_keys.py`` while
the private-key operation was a single ``pow(x, d, n)``; the CRT path
must reproduce every pinned value.
"""

import dataclasses
import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security import PrivateKeyFault, generate_keypair, is_probable_prime
from repro.security import keys as keys_module

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "gen_golden_keys.py"
_spec = importlib.util.spec_from_file_location("gen_golden_keys", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _digest(message: bytes, n: int) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % n


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 97, 101, 65537):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 91, 561, 65535):
            assert not is_probable_prime(n), n

    def test_carmichael(self):
        # 561, 1105, 1729 are Carmichael numbers (fool Fermat, not MR).
        for n in (561, 1105, 1729):
            assert not is_probable_prime(n)

    def test_large_known_prime(self):
        assert is_probable_prime(2**127 - 1)  # Mersenne prime
        assert not is_probable_prime(2**128 - 1)


class TestKeyGeneration:
    def test_deterministic_with_seed(self):
        a = generate_keypair(bits=256, seed=7)
        b = generate_keypair(bits=256, seed=7)
        assert a.public.n == b.public.n

    def test_different_seeds_differ(self):
        assert (
            generate_keypair(bits=256, seed=1).public.n
            != generate_keypair(bits=256, seed=2).public.n
        )

    def test_modulus_size(self):
        kp = generate_keypair(bits=256, seed=3)
        assert 250 <= kp.public.n.bit_length() <= 257

    def test_tiny_keys_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(bits=32)


class TestSignVerify:
    @pytest.fixture(scope="class")
    def kp(self):
        return generate_keypair(bits=512, seed=42)

    def test_roundtrip(self, kp):
        sig = kp.private.sign(b"hello world")
        assert kp.public.verify(b"hello world", sig)

    def test_wrong_message_fails(self, kp):
        sig = kp.private.sign(b"hello")
        assert not kp.public.verify(b"HELLO", sig)

    def test_wrong_key_fails(self, kp):
        other = generate_keypair(bits=512, seed=43)
        sig = kp.private.sign(b"msg")
        assert not other.public.verify(b"msg", sig)

    def test_out_of_range_signature(self, kp):
        assert not kp.public.verify(b"msg", 0)
        assert not kp.public.verify(b"msg", kp.public.n)

    def test_signature_deterministic(self, kp):
        assert kp.private.sign(b"m") == kp.private.sign(b"m")


class TestEncryptDecrypt:
    @pytest.fixture(scope="class")
    def kp(self):
        return generate_keypair(bits=512, seed=11)

    def test_roundtrip(self, kp):
        value = 123456789
        assert kp.private.decrypt(kp.public.encrypt(value)) == value

    def test_range_enforced(self, kp):
        with pytest.raises(ValueError):
            kp.public.encrypt(kp.public.n)
        with pytest.raises(ValueError):
            kp.private.decrypt(-1)


class TestFingerprint:
    def test_stable_and_short(self):
        kp = generate_keypair(bits=256, seed=5)
        fp = kp.public.fingerprint()
        assert fp == kp.public.fingerprint()
        assert len(fp) == 16

    def test_distinct_keys_distinct_fp(self):
        a = generate_keypair(bits=256, seed=5)
        b = generate_keypair(bits=256, seed=6)
        assert a.public.fingerprint() != b.public.fingerprint()


class TestGoldenVectors:
    @pytest.fixture(scope="class")
    def fixture(self):
        return json.loads(golden.FIXTURE.read_text())

    @pytest.fixture(scope="class")
    def results(self):
        return golden.run()

    def test_format_version(self, fixture):
        assert fixture["format"] == golden.FORMAT

    def test_fixture_reproduced_byte_for_byte(self, results):
        assert golden.render(results) == golden.FIXTURE.read_text()

    @pytest.mark.parametrize("point", [golden.point_id(*point) for point in golden.POINTS])
    def test_key_point_matches_golden(self, point, results, fixture):
        # Per-key view of the same comparison, for a readable diff.
        assert results["keys"][point] == fixture["keys"][point]

    def test_small_modulus_pins_the_digest_reduction(self, fixture):
        n = int(fixture["keys"]["bits256-seed7"]["n"], 16)
        assert n.bit_length() <= 256
        for name in ("empty", "auth-zero-nonce"):
            raw = hashlib.sha256(golden.MESSAGES[name]).digest()
            assert int.from_bytes(raw, "big") >= n, name


class TestCrtMatchesPlainExponentiation:
    KEYS = st.sampled_from(golden.POINTS).map(lambda point: golden.keypair(*point))

    @settings(max_examples=60, deadline=None)
    @given(kp=KEYS, message=st.binary(max_size=2048))
    def test_sign_is_digest_to_the_d(self, kp, message):
        signature = kp.private.sign(message)
        assert signature == pow(_digest(message, kp.public.n), kp.private.d, kp.public.n)
        assert kp.public.verify(message, signature)

    @settings(max_examples=60, deadline=None)
    @given(kp=KEYS, value=st.integers(0, 1 << 1024))
    def test_decrypt_is_value_to_the_d(self, kp, value):
        value %= kp.public.n
        assert kp.private.decrypt(value) == pow(value, kp.private.d, kp.public.n)


class TestPrivateKeyConstruction:
    def test_primes_must_multiply_to_the_modulus(self):
        key = generate_keypair(bits=256, seed=7).private
        with pytest.raises(ValueError):
            keys_module.PrivateKey(key.n, key.d, key.p, key.q + 2, key.e)
        with pytest.raises(ValueError):
            dataclasses.replace(key, n=key.n + 2)
        with pytest.raises(ValueError):
            dataclasses.replace(key, p=1, q=key.n)

    def test_derived_crt_values_are_not_fields(self):
        key = generate_keypair(bits=256, seed=7).private
        assert [f.name for f in dataclasses.fields(key)] == ["n", "d", "p", "q", "e"]
        twin = dataclasses.replace(key)
        assert twin == key and hash(twin) == hash(key)

    def test_repr_shows_no_key_material(self):
        kp = generate_keypair(bits=256, seed=7)
        for text in (repr(kp), repr(kp.private), str(kp.private)):
            for secret in (kp.private.d, kp.private.p, kp.private.q):
                assert str(secret) not in text
                assert hex(secret)[2:] not in text
        assert kp.public.fingerprint() in repr(kp.private)
        assert str(kp.public.n.bit_length()) in repr(kp.private)


class TestFaultedHalfIsNotReleased:
    """One wrong CRT half factors the modulus for whoever sees the result
    (Boneh-DeMillo-Lipton): the public-exponent check must stay."""

    MESSAGE = b"repro-auth|" + bytes(32)

    def test_faulted_power_raises_and_would_have_leaked_a_prime(self, monkeypatch):
        key = generate_keypair(bits=512, seed=31).private
        halves, calls = [], []
        power = keys_module.modexp.power

        def glitching_power(base, exp, modulus):
            halves.append(modulus.m)
            value = power(base, exp, modulus)
            return value ^ 1 if len(halves) == 1 else value  # first half-width power

        def recording_pow(base, exp, mod):
            calls.append((base, exp, mod))
            return pow(base, exp, mod)

        # The halves run on the kernel facade, the check on builtin pow.
        monkeypatch.setattr(keys_module.modexp, "power", glitching_power)
        monkeypatch.setattr(keys_module, "pow", recording_pow, raising=False)
        with pytest.raises(PrivateKeyFault) as excinfo:
            key.sign(self.MESSAGE)
        monkeypatch.undo()

        # The last call is the check itself: its base is the value the
        # unchecked recombination would have returned as the signature.
        assert halves == [key.p, key.q]
        unchecked, exp, mod = calls[-1]
        assert (exp, mod) == (key.e, key.n)
        digest = _digest(self.MESSAGE, key.n)
        assert unchecked != pow(digest, key.d, key.n)
        assert math.gcd(pow(unchecked, key.e, key.n) - digest, key.n) in (key.p, key.q)
        assert str(unchecked) not in str(excinfo.value)

    def test_corrupt_derived_exponent_raises_from_sign_and_decrypt(self):
        key = generate_keypair(bits=512, seed=31).private
        object.__setattr__(key, "_dq", key._dq ^ 1)
        with pytest.raises(PrivateKeyFault):
            key.sign(self.MESSAGE)
        with pytest.raises(PrivateKeyFault):
            key.decrypt(12345)

    def test_inconsistent_private_exponent_raises(self):
        key = generate_keypair(bits=256, seed=7).private
        wrong = dataclasses.replace(key, d=key.d + 2)
        with pytest.raises(PrivateKeyFault):
            wrong.sign(self.MESSAGE)
