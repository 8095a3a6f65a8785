"""The compiled Montgomery modexp under the RSA private-key operation.

Both backends of :func:`repro.security.modexp.power` are selected by
flipping the loader's memo, as in ``tests/gf/conftest.py``; the kernel is
loaded at import so that no hypothesis example pays the compile.
"""

from __future__ import annotations

import importlib.util
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.security import PrivateKeyFault, generate_keypair, modexp

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "gen_golden_keys.py"
_spec = importlib.util.spec_from_file_location("gen_golden_keys", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

KERNEL = modexp.load()
needs_kernel = pytest.mark.skipif(
    KERNEL is None, reason=f"modexp kernel not live: {native.status()['modexp']}"
)


@contextmanager
def backend(kernel):
    """:func:`modexp.power` runs on ``kernel`` (``None``: builtin pow)."""
    with mock.patch.dict(native._LOADED, {"modexp": (kernel, "set by the test suite")}):
        yield


class Counting:
    """A facade that forwards to ``inner`` and counts its calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def power(self, base, exp, modulus):
        self.calls += 1
        return self.inner.power(base, exp, modulus)


@st.composite
def operands(draw):
    """``(base, exp, m)``: an odd modulus the kernel takes, from one limb to
    the cap, with edge bases and exponents, exponents past the modulus
    included."""
    limbs = draw(st.integers(1, modexp.LIMB_CAP))
    bits = draw(st.integers(max(modexp.MIN_BITS + 1, 64 * limbs - 63), 64 * limbs))
    m = draw(
        st.one_of(
            st.just((1 << bits) - 1),
            st.integers(1 << bits - 1, (1 << bits) - 1).map(lambda v: v | 1),
        )
    )
    base = draw(st.one_of(st.sampled_from([0, 1, m - 1]), st.integers(0, m - 1)))
    ebits = draw(st.integers(0, 2 * bits + 70))
    exp = draw(
        st.one_of(st.sampled_from([0, 1, (1 << ebits) - 1]), st.integers(0, (1 << ebits) - 1))
    )
    return base, exp, m


class TestParityWithPow:
    @needs_kernel
    @settings(max_examples=150, deadline=None)
    @given(case=operands())
    def test_kernel_matches_pow(self, case):
        base, exp, m = case
        modulus = modexp.Modulus(m)
        assert modulus.limbs == (m.bit_length() + 63) // 64
        assert KERNEL.power(base, exp, modulus) == pow(base, exp, m)

    @settings(max_examples=60, deadline=None)
    @given(case=operands(), shift=st.integers(-2, 2))
    def test_facade_matches_pow_on_both_backends(self, case, shift):
        base, exp, m = case
        base += shift * m  # bases at or past m, and negative ones, are reduced
        modulus = modexp.Modulus(m)
        for kernel in {KERNEL, None}:
            with backend(kernel):
                assert modexp.power(base, exp, modulus) == pow(base, exp, m)

    @needs_kernel
    def test_a_key_half_runs_on_the_kernel(self):
        key = generate_keypair(bits=512, seed=31).private
        counting = Counting(KERNEL)
        with backend(counting):
            signature = key.sign(b"message")
        assert counting.calls == 2
        with backend(None):
            assert key.sign(b"message") == signature


class TestZeroFromANonzeroBase:
    """``m`` with a square factor maps a nonzero base to 0: the kernel's
    last comparison must give 0, not ``m`` (a reduction that subtracts
    only on overflow returns ``m`` here and passes every other case)."""

    @needs_kernel
    @pytest.mark.parametrize("p", [(1 << 31) - 1, (1 << 61) - 1, (1 << 89) - 1, (1 << 127) - 1])
    @pytest.mark.parametrize("power", [2, 3])
    def test_prime_power_modulus(self, p, power):
        m = p**power
        modulus = modexp.Modulus(m)
        assert modulus.limbs
        for base, exp in ((p, power), (p, power + 1), (2 * p, 7 * power), (p, 1)):
            assert KERNEL.power(base % m, exp, modulus) == pow(base, exp, m)


class TestOperandRule:
    """Moduli the kernel does not take go to builtin ``pow`` untouched."""

    class Refusing:
        def power(self, base, exp, modulus):
            raise AssertionError(f"kernel called on a {modulus.m.bit_length()}-bit modulus")

    @pytest.mark.parametrize(
        "m",
        [
            (1 << 200) + 6,  # even
            (1 << 64 * modexp.LIMB_CAP) + 1,  # one bit over the cap
            (1 << 64 * modexp.LIMB_CAP + 300) - 1,  # far over it
            (1 << modexp.MIN_BITS) - 1,  # one CPython digit: pow is faster
            3,
            1,
            -((1 << 100) + 1),  # negative
        ],
    )
    def test_taken_by_pow(self, m):
        modulus = modexp.Modulus(m)
        assert modulus.limbs == 0
        with backend(self.Refusing()):
            for base, exp in ((0, 0), (1, 1), (12345, (1 << 130) - 1), (m - 1, 65537)):
                assert modexp.power(base, exp, modulus) == pow(base, exp, m)

    @needs_kernel
    def test_kernel_facade_refuses_what_it_cannot_take(self):
        odd, even = modexp.Modulus((1 << 100) + 1), modexp.Modulus(1 << 100)
        for base, exp, modulus in ((0, 1, even), (odd.m, 1, odd), (-1, 1, odd), (2, -1, odd)):
            with pytest.raises(ValueError):
                KERNEL.power(base, exp, modulus)

    def test_negative_exponent_is_pow_inverse(self):
        m = (1 << 127) - 1
        modulus = modexp.Modulus(m)
        assert modulus.limbs == 2
        with backend(self.Refusing()):
            assert modexp.power(3, -1, modulus) == pow(3, -1, m)

    def test_smallest_and_largest_taken(self):
        assert modexp.Modulus((1 << modexp.MIN_BITS) + 1).limbs == 1
        assert modexp.Modulus((1 << 64 * modexp.LIMB_CAP) - 1).limbs == modexp.LIMB_CAP


class TestSelfCheck:
    @pytest.fixture
    def unresolved(self, monkeypatch):
        monkeypatch.delitem(native._LOADED, "modexp", raising=False)

    @needs_kernel
    def test_good_kernel_accepted(self):
        assert modexp._self_check(KERNEL)
        assert native.status()["modexp"] == "ok"

    @needs_kernel
    @pytest.mark.parametrize(
        "off",
        [
            lambda base, exp, modulus: True,
            lambda base, exp, modulus: modulus.limbs == modexp.LIMB_CAP,
            lambda base, exp, modulus: modulus.limbs == 1,
            lambda base, exp, modulus: exp == 0,
            lambda base, exp, modulus: base == modulus.m - 1 and exp > 1,
        ],
        ids=["always", "at-the-cap", "at-one-limb", "exponent-zero", "base-m-minus-1"],
    )
    def test_one_bit_off_is_refused(self, monkeypatch, unresolved, off):
        class OneBitOff(modexp.ModExpKernel):
            def power(self, base, exp, modulus):
                value = super().power(base, exp, modulus)
                return value ^ 1 if off(base, exp, modulus) else value

        monkeypatch.setattr(modexp, "ModExpKernel", OneBitOff)
        assert modexp.load() is None
        assert native.status()["modexp"] == "self-check failed"
        key = generate_keypair(bits=256, seed=7)
        assert key.public.verify(b"m", key.private.sign(b"m"))

    def test_env_kill_switch(self, monkeypatch, unresolved):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert modexp.load() is None
        assert native.status()["modexp"] == "disabled by REPRO_NO_NATIVE"


class TestWrongCompiledHalf:
    """A compiled half that is wrong is caught by the public-exponent check
    on ``pow``: nothing is returned and the fault carries no value."""

    MESSAGE = b"repro-auth|" + bytes(32)

    @needs_kernel
    @pytest.mark.parametrize("half", ["p", "q"])
    def test_sign_and_decrypt_raise(self, half):
        key = generate_keypair(bits=512, seed=31).private
        prime = getattr(key, half)

        class WrongHalf:
            def power(self, base, exp, modulus):
                value = KERNEL.power(base, exp, modulus)
                return value ^ 1 if modulus.m == prime else value

        released = []
        with backend(WrongHalf()):
            for op, arg in ((key.sign, self.MESSAGE), (key.decrypt, 12345)):
                with pytest.raises(PrivateKeyFault) as excinfo:
                    released.append(op(arg))
                assert excinfo.value.args == (
                    "private-key result failed the public-exponent check",
                )
        assert released == []


class TestGoldenKeys:
    """``golden_keys.json`` (seeded keygen, signatures, decrypts) comes out
    of either backend byte for byte."""

    @pytest.mark.parametrize("name", ["kernel", "pow"])
    def test_reproduced(self, name):
        if name == "kernel" and KERNEL is None:
            pytest.skip(f"modexp kernel not live: {native.status()['modexp']}")
        counting = Counting(KERNEL) if name == "kernel" else None
        golden.keypair.cache_clear()  # key generation runs on the backend too
        with backend(counting):
            assert golden.render(golden.run()) == golden.FIXTURE.read_text()
        if counting is not None:
            assert counting.calls > 0
