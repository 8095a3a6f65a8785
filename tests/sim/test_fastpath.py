"""The runtime-compiled allocation kernels and their fallback gating.

The native library is optional: everything must work (identically) with
``load()`` returning ``None``.  When it does load, every kernel must be
bit-identical to the numpy implementation it replaces — that is the
self-check's own gate, re-verified here directly so a kernel bug fails
a named test instead of silently downgrading the engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.allocation import (
    PeerwiseProportionalAllocator,
    enforce_feasibility_rows,
)
from repro.core.baselines import GlobalProportionalAllocator
from repro.sim import fastpath
from repro.sim.shard import numpy_eq2_rows
from repro.sim.sparse import SparseLedgers

kernels = fastpath.load()
needs_native = pytest.mark.skipif(
    kernels is None, reason="no C compiler / native kernels unavailable"
)


@needs_native
class TestKernelsBitIdentical:
    def test_pairwise_sum_matches_numpy(self):
        rng = np.random.default_rng(1)
        for n in (0, 1, 7, 8, 9, 127, 128, 129, 1000, 4099):
            a = (rng.random(n) - 0.3) * 1e6
            got = kernels.pairwise_sum(a)
            if n == 0:
                assert got == 0.0
            else:
                assert got == a.sum()

    def _random_case(self, rng):
        n = int(rng.integers(1, 40))
        ledger = rng.random((n, n)) * rng.choice([1e-6, 1.0, 1e9])
        ledger[rng.random((n, n)) < 0.2] = 0.0
        req = rng.random(n) < 0.7
        caps = rng.random(n) * rng.choice([0.0, 5e-324, 1.0, 2000.0])
        declared = rng.random(n) * 1000.0
        return n, ledger, req, caps, declared

    def test_eq2_rows_match_numpy(self):
        rng = np.random.default_rng(2)
        eq2 = PeerwiseProportionalAllocator()
        for _ in range(30):
            n, ledger, req, caps, declared = self._random_case(rng)
            idx = np.arange(n)
            want = enforce_feasibility_rows(
                eq2.allocate_rows(idx, caps, req, ledger, declared, 0),
                caps, req,
            )
            got = np.empty((n, n))
            kernels.alloc_rows_eq2(
                ledger, req.view(np.uint8), caps,
                np.arange(n, dtype=np.int64), got,
            )
            assert got.tobytes() == want.tobytes()

    def test_eq3_rows_match_numpy(self):
        rng = np.random.default_rng(3)
        eq3 = GlobalProportionalAllocator()
        for _ in range(30):
            n, ledger, req, caps, declared = self._random_case(rng)
            idx = np.arange(n)
            want = enforce_feasibility_rows(
                eq3.allocate_rows(idx, caps, req, ledger, declared, 0),
                caps, req,
            )
            weights = np.where(req, declared, 0.0)
            got = np.empty((n, n))
            kernels.alloc_rows_shared(
                weights, weights.sum(), req.view(np.uint8), caps,
                np.arange(n, dtype=np.int64), got,
            )
            assert got.tobytes() == want.tobytes()

    def test_ledger_tadd_matches_numpy(self):
        """The masked fold equals the full ``ledger + alloc.T * w`` when
        ``alloc`` satisfies feasibility (non-requester columns +0.0),
        and leaves non-requesters' ledger rows bitwise untouched."""
        rng = np.random.default_rng(4)
        for n in fastpath.TADD_SIZES:
            ledger = rng.random((n, n))
            for req in fastpath.tadd_masks(rng, n):
                alloc = np.where(req, rng.random((n, n)) * 100.0, 0.0)
                for w in (1.0, 0.3, 10.0):
                    want = ledger + alloc.T * w
                    got = ledger.copy()
                    kernels.ledger_tadd(got, alloc, req.view(np.uint8), w)
                    assert got.tobytes() == want.tobytes()
                    assert got[~req].tobytes() == ledger[~req].tobytes()

    def test_partial_row_subsets(self):
        """Kernels fill only the rows they are given."""
        rng = np.random.default_rng(5)
        n = 12
        ledger = rng.random((n, n))
        req = np.ones(n, dtype=bool)
        caps = rng.random(n) * 100.0
        rows = np.array([2, 5, 11], dtype=np.int64)
        out = np.full((n, n), -1.0)
        kernels.alloc_rows_eq2(ledger, req.view(np.uint8), caps, rows, out)
        untouched = np.setdiff1d(np.arange(n), rows)
        assert np.all(out[untouched] == -1.0)
        assert np.all(out[rows] >= 0.0)


@st.composite
def planned_sums(draw):
    """A dense extent and sorted positions in it: random, strided, a
    few clustered runs (or none), or one run to the end of the extent."""
    length = draw(st.integers(1, 3000))
    shape = draw(st.sampled_from(["random", "strided", "clustered", "end"]))
    if shape == "end":
        pos = range(max(0, length - draw(st.integers(1, 40))), length)
    elif shape == "random":
        pos = draw(st.sets(st.integers(0, length - 1), max_size=200))
    elif shape == "strided":
        stride = draw(st.integers(1, 200))
        pos = range(draw(st.integers(0, stride - 1)), length, stride)
    else:
        pos = {
            (start + k) % length
            for start, run in draw(st.lists(st.tuples(st.integers(0, length - 1),
                                                      st.integers(1, 40)), max_size=4))
            for k in range(run)
        }
    return np.array(sorted(pos), dtype=np.int64), length


@needs_native
class TestSparsePlan:
    """The sparse kernels' pairwise plan and Equation (2)'s cold-row copy,
    as properties (the self-check draws the same cases from one seed)."""

    @given(case=planned_sums(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_plan_sum_is_the_dense_sum(self, case, seed):
        pos, length = case
        dense = np.zeros(length)
        dense[pos] = fastpath.pairwise_values(np.random.default_rng(seed), pos.size)
        got = kernels.sparse_pairwise(pos, dense[pos], length)
        assert np.float64(got).tobytes() == dense.sum().tobytes()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cold_and_warm_eq2_rows_match_numpy(self, data):
        """Warm rows (an entry at a requester) and cold ones (entries
        elsewhere, or none) with repeating and differing (background,
        cap) pairs: bit-identical to the numpy rows, and every cold row
        but the first of its pair is copied."""
        n = data.draw(st.integers(2, 600))
        R = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=80))),
                     dtype=np.int64)
        outside = np.setdiff1d(np.arange(n), R)
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=16,
                                           unique=True)), dtype=np.int64)
        store = SparseLedgers(n, 1e-6, np.full(n, 0.9))
        for i in rows.tolist():
            kind = data.draw(st.sampled_from(["warm", "elsewhere", "none"]))
            cols = R if kind == "warm" else outside if kind == "elsewhere" else R[:0]
            if cols.size:
                cols = cols[: data.draw(st.integers(1, 5))]
                store.add_compact(i, cols, np.full(cols.size, 2.5))
        store.advance_epoch()
        pick = st.sampled_from
        store.background[rows] = data.draw(st.lists(pick([0.0, 5e-324, 1e-6, 0.37]),
                                                    min_size=rows.size, max_size=rows.size))
        caps = np.array(data.draw(st.lists(pick([1e-300, 3.0, 700.0]),
                                           min_size=rows.size, max_size=rows.size)))
        rowpos = np.array(data.draw(st.permutations(range(rows.size))), dtype=np.int64)
        want = np.empty((rows.size, R.size))
        numpy_eq2_rows(store, rows, rowpos, R, caps, want)
        got = np.empty_like(want)
        copied = kernels.sparse_rows_eq2(store, rows, rowpos, R, caps, got)
        assert got.tobytes() == want.tobytes()
        cold = [
            (store.background[i], cap)
            for i, cap in zip(rows.tolist(), caps.tolist())
            if not np.isin(R, store._idx.get(i, R[:0])).any()
        ]
        assert copied == len(cold) - len(set(cold))

    def test_plan_allocation_failure_raises(self):
        """An extent no allocator can plan raises MemoryError and writes
        nothing."""

        class Huge:
            size = 1 << 60
            ctypes = type("ctypes", (), {"data": 0})

        with pytest.raises(MemoryError):
            kernels.sparse_pairwise(Huge, Huge, 1 << 62)
        store = SparseLedgers(4, 1e-6, np.ones(4))
        M = np.full((1, 1), -1.0)
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(MemoryError):
            kernels.sparse_rows_eq2(store, one, one, Huge, np.ones(1), M)
        with pytest.raises(MemoryError):
            kernels.sparse_rows_shared(one, Huge, np.ones(1), np.ones(1), M, 1 << 62)
        assert M[0, 0] == -1.0


class TestGating:
    """The loader itself (env, compiler, cache, memo) is shared with the
    GF kernel and tested once, in ``tests/test_native.py``."""

    @pytest.fixture
    def unresolved(self, monkeypatch):
        """Forget this kernel's memo for one test (restored after it)."""
        monkeypatch.delitem(native._LOADED, "fastalloc", raising=False)

    def test_env_kill_switch(self, monkeypatch, unresolved):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert fastpath.load() is None
        assert native.status()["fastalloc"] == "disabled by REPRO_NO_NATIVE"

    def test_no_compiler_means_fallback(self, monkeypatch, unresolved):
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
        monkeypatch.setattr(native, "_compiler", lambda: None)
        assert fastpath.load() is None
        assert native.status()["fastalloc"] == "no compiler"

    def test_load_is_memoized(self):
        assert fastpath.load() is fastpath.load()

    @needs_native
    def test_self_check_accepts_good_kernels(self):
        assert fastpath._self_check(kernels)
