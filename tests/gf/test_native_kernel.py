"""The compiled ``GF(2^p)`` kernel's gating, mirroring
``tests/sim/test_fastpath.py::TestGating``.

The kernel is optional: with ``load()`` returning ``None`` for whatever
reason, ``bit_matmul`` must return the same bytes from its numpy body.
What the kernel computes is covered on both backends by
``test_bitmatmul_blocks.py`` and ``test_kernel_equivalence.py``; the
loader's own behaviour by ``tests/test_native.py``.
"""

import numpy as np
import pytest

from repro import native
from repro.gf import GF, bitmatmul
from repro.obs import observability

kernel = bitmatmul.load()
needs_native = pytest.mark.skipif(
    kernel is None, reason="no C compiler / native GF kernel unavailable"
)


@pytest.fixture
def unresolved(monkeypatch):
    """Forget this kernel's memo for one test (restored after it)."""
    monkeypatch.delitem(native._LOADED, "gfmul", raising=False)


@pytest.fixture(scope="module")
def product():
    """A product big enough for ``GF(32).matmul`` to route to the engine,
    and its bytes from the numpy body."""
    field = GF(32)
    rng = np.random.default_rng(17)
    C, P = field.random((8, 8), rng), field.random((8, 4100), rng)
    assert bitmatmul.use_bit_engine(8, 8, 4100, 32)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(native._LOADED, "gfmul", (None, "numpy forced by the test suite"))
        want = field.matmul(C, P)
    return field, C, P, want.tobytes()


def counters(snapshot):
    return tuple(
        snapshot[f"repro.gf.matmul.{name}"]["value"] for name in ("bitpacked", "native")
    )


class TestGating:
    def test_env_kill_switch(self, monkeypatch, unresolved, product):
        field, C, P, want = product
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert bitmatmul.load() is None
        assert native.status()["gfmul"] == "disabled by REPRO_NO_NATIVE"
        assert field.matmul(C, P).tobytes() == want

    def test_no_compiler_means_fallback(self, monkeypatch, unresolved, product):
        field, C, P, want = product
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
        monkeypatch.setattr(native, "_compiler", lambda: None)
        assert bitmatmul.load() is None
        assert native.status()["gfmul"] == "no compiler"
        assert field.matmul(C, P).tobytes() == want

    def test_load_is_memoized(self):
        assert bitmatmul.load() is bitmatmul.load()

    @needs_native
    def test_self_check_accepts_good_kernel(self):
        assert bitmatmul._self_check(kernel)
        assert native.status()["gfmul"] == "ok"

    @needs_native
    def test_one_flipped_bit_is_refused(self, monkeypatch, unresolved, product):
        """A facade that is wrong in one output bit never goes live, and
        the product still comes out right (from numpy)."""

        class OneBitOff(bitmatmul.GF2Kernel):
            def matmul(self, C, src, out, *args, **kwargs):
                super().matmul(C, src, out, *args, **kwargs)
                out[-1, -1] ^= 1

        field, C, P, want = product
        monkeypatch.setattr(bitmatmul, "GF2Kernel", OneBitOff)
        assert bitmatmul.load() is None
        assert native.status()["gfmul"] == "self-check failed"
        assert field.matmul(C, P).tobytes() == want

    @needs_native
    def test_facade_rejects_what_it_cannot_pass_to_c(self):
        C = np.zeros((2, 3), dtype=np.uint32)
        src = np.zeros((3, 70), dtype=np.uint8)
        out = np.empty((2, 70), dtype=np.uint8)
        tables = bitmatmul.tables(GF(8))
        kernel.matmul(C, src, out, *tables, w=8)
        with pytest.raises(ValueError):  # inner dimensions disagree
            kernel.matmul(C, src[:2], out, *tables, w=8)
        with pytest.raises(ValueError):  # out is a strided view
            kernel.matmul(C, src, np.empty((2, 140), dtype=np.uint8)[:, ::2], *tables, w=8)
        with pytest.raises(ValueError):  # out has the wrong dtype
            kernel.matmul(C, src, np.empty((2, 70), dtype=np.uint32), *tables, w=8)
        with pytest.raises(ValueError):  # symbols wider than their storage
            kernel.matmul(C, src, out, *bitmatmul.tables(GF(16)), w=8)
        with pytest.raises(ValueError):  # big-endian only where w = p
            kernel.matmul(C, src, out, *tables, w=32, big_endian=True)
        with pytest.raises(ValueError):  # a row is not whole symbols
            kernel.matmul(C, src[:, :69], out[:, :69], *bitmatmul.tables(GF(16)), w=16)
        with pytest.raises(ValueError):  # a coefficient outside GF(2^8)
            kernel.matmul(C + 256, src, out, *tables, w=8)

    @needs_native
    def test_field_tables_are_bound_once_per_field(self, monkeypatch):
        """``bound_tables`` binds a table field's ``_logz`` / ``_expz`` on
        first use and hands the same two values out after (the tower's
        are its base's), so a product or a screening call converts only
        its own arrays: three, not five."""
        for field in (GF(8), GF(16), GF(32)):
            logz, expz, c = bitmatmul.bound_tables(field)
            assert bitmatmul.bound_tables(field)[:2] == (logz, expz)
            assert [t.array for t in (logz, expz)] == list(bitmatmul.tables(field)[:2])
            assert c == bitmatmul.tables(field)[2]
        assert bitmatmul.bound_tables(GF(32))[0] is GF(32).base._bound_tables[0]
        converted = []
        monkeypatch.setattr(bitmatmul, "address", lambda a: converted.append(a) or native.address(a))
        field = GF(8)
        C = field.random((4, 4), np.random.default_rng(5))
        bitmatmul.record_matmul(field, C, np.zeros((4, 64), dtype=np.uint8))
        assert sum(type(a) is not native.Bound for a in converted) == 3
        converted.clear()
        from repro.gf.linalg import is_invertible

        is_invertible(field, C[None])
        assert sum(type(a) is not native.Bound for a in converted) == 3


class TestCounters:
    """``repro.gf.matmul.native`` says which backend served a product."""

    @needs_native
    def test_native_calls_are_counted(self, product):
        field, C, P, want = product
        with observability(reset=True) as obs:
            assert field.matmul(C, P).tobytes() == want
            assert counters(obs.snapshot()) == (1, 1)

    def test_numpy_calls_are_not(self, monkeypatch, product):
        field, C, P, want = product
        monkeypatch.setitem(native._LOADED, "gfmul", (None, "numpy forced by the test suite"))
        with observability(reset=True) as obs:
            assert field.matmul(C, P).tobytes() == want
            assert counters(obs.snapshot()) == (1, 0)


class TestRouting:
    """``use_bit_engine`` is one predicate for both backends; only the
    numpy body's work floor and its two shape exclusions look at which
    one is live."""

    def test_small_inner_dimension_routes_by_backend(self, backend):
        # One row, or a square product with fewer than eight inner rows:
        # the compiled kernel beats the gather kernels 5-10x there, the
        # numpy body loses to them.
        native_only = backend == "native"
        assert bitmatmul.use_bit_engine(1, 1, 1 << 18, 32) is native_only
        assert bitmatmul.use_bit_engine(4, 4, 1 << 16, 32) is native_only
        assert bitmatmul.use_bit_engine(15, 7, 1 << 12, 8) is native_only
        # Under 2^18 products the numpy body's pack/unpack does not
        # amortise; the compiled kernel wins from one word up.
        assert bitmatmul.use_bit_engine(8, 8, 2048, 8) is native_only
        assert bitmatmul.use_bit_engine(64, 16, 64, 8) is native_only
        assert bitmatmul.use_bit_engine(2, 2, 64, 4) is native_only

    def test_everything_else_routes_the_same(self, backend):
        assert bitmatmul.use_bit_engine(8, 8, 1 << 15, 32)  # the paper's decode
        assert bitmatmul.use_bit_engine(16, 4, 1 << 16, 32)  # tall
        assert not bitmatmul.use_bit_engine(8, 8, 63, 32)  # under one word
        assert not bitmatmul.use_bit_engine(0, 8, 1 << 15, 8)  # empty
        assert not bitmatmul.use_bit_engine(8, 0, 1 << 15, 8)
        assert not bitmatmul.use_bit_engine(8, 8, 1 << 15, 33)

    def test_empty_products_are_empty(self, backend):
        field = GF(8)
        assert field.matmul(field.zeros((0, 8)), field.zeros((8, 64))).shape == (0, 64)
        assert not field.matmul(field.zeros((8, 0)), field.zeros((0, 64))).any()

    def test_small_products_agree_across_routes(self, backend):
        field = GF(32)
        rng = np.random.default_rng(5)
        C, P = field.random((4, 4), rng), field.random((4, 1 << 16), rng)
        slow = field.zeros((4, 1 << 16))
        for j in range(4):
            slow ^= field.mul(C[:, j, None], P[j][None, :])
        assert np.array_equal(field.matmul(C, P), slow)
