"""The runtime-compiled allocation kernels and their fallback gating.

The native library is optional: everything must work (identically) with
``load()`` returning ``None``.  When it does load, every kernel must
equal the numpy implementation it replaces — that is the self-check's
own gate, re-verified here directly so a kernel bug fails a named test
instead of silently downgrading the engine.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.apportion import MAX_RATE, apportion, eq2_grants, slot_credit
from repro.sim import fastpath
from repro.sim.shard import numpy_eq2_rows
from repro.sim.sparse import SparseLedgers

kernels = fastpath.load()
needs_native = pytest.mark.skipif(
    kernels is None, reason="no C compiler / native kernels unavailable"
)


@needs_native
class TestKernelsBitIdentical:
    """The batched engine's compact kernels: rows written into the
    ``(givers, |R|)`` block and the fold of that block into the
    requesters' ledger rows."""

    def _cases(self, seed):
        """Compact-rows calls in a shuffled row order: ``|R|`` of 0, 1, n
        or drawn, with rows holding no byte at R (equal splits)."""
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            yield (n, *fastpath.compact_case(rng, n), rng.permutation(n))

    def test_eq2_rows_match_numpy(self):
        """Equation (2) rows over the dense ledger gathered at R; a row
        with requesters grants exactly its budget."""
        for n, ledger, R, caps, _, rows in self._cases(2):
            got = np.full((n, R.size), -1, dtype=np.int64)
            kernels.alloc_rows_eq2(ledger, R, caps, rows, got)
            assert np.array_equal(got[rows], eq2_grants(caps, ledger[np.ix_(rows, R)]))
            if R.size:
                assert np.array_equal(got[rows].sum(axis=1), caps)

    def test_eq3_rows_match_numpy(self):
        """Equation (3) rows over the shared weights at R."""
        for n, _, R, caps, wR, rows in self._cases(3):
            got = np.full((n, R.size), -1, dtype=np.int64)
            kernels.rows_shared(rows, wR, caps, got)
            assert np.array_equal(got[rows], apportion(caps, np.broadcast_to(wR, (n, R.size))))

    def test_ledger_tadd_matches_numpy(self):
        """The compact fold equals ``ledger[R] += slot_credit(M.T, w)`` at
        every tile edge, leaves non-requesters' ledger rows untouched and
        returns ``M``'s column sums."""
        rng = np.random.default_rng(4)
        for n in fastpath.TADD_SIZES:
            ledger = rng.integers(0, 1 << 40, (n, n))
            for req in fastpath.tadd_masks(rng, n):
                R = np.flatnonzero(req)
                M = rng.integers(0, 1 << 20, (n, R.size))
                for w in (1.0, 0.3, 10.0):
                    want = ledger.copy()
                    want[R] += slot_credit(M.T, w)
                    got, sums = ledger.copy(), np.full(R.size, -1, dtype=np.int64)
                    kernels.ledger_tadd(got, M, R, w, sums)
                    assert np.array_equal(got, want)
                    assert np.array_equal(sums, M.sum(axis=0))
                    assert np.array_equal(got[~req], ledger[~req])

    def test_partial_row_subsets(self):
        """Kernels fill only the rows they are given."""
        rng = np.random.default_rng(5)
        n = 12
        ledger = rng.integers(0, 1000, (n, n))
        caps = rng.integers(1, 10**5, n)
        rows = np.array([2, 5, 11], dtype=np.int64)
        R = np.array([0, 3, 5, 6, 10], dtype=np.int64)
        out = np.full((n, R.size), -1, dtype=np.int64)
        kernels.alloc_rows_eq2(ledger, R, caps[rows], rows, out)
        untouched = np.setdiff1d(np.arange(n), rows)
        assert np.all(out[untouched] == -1)
        assert np.all(out[rows] >= 0)
        assert np.array_equal(out[rows].sum(axis=1), caps[rows])


@needs_native
class TestSparseRows:
    """The sparse kernels' Equation (2) rows and cold-row copy, as
    properties (the self-check draws similar cases from one seed)."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cold_and_warm_eq2_rows_match_numpy(self, data):
        """Warm rows (a byte from a requester) and cold ones (entries
        elsewhere, zero-valued, or none) with repeating and differing
        capacities: equal to the numpy rows, and every cold row but the
        first of its capacity is copied."""
        n = data.draw(st.integers(2, 600))
        R = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=80))),
                     dtype=np.int64)
        outside = np.setdiff1d(np.arange(n), R)
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=16,
                                           unique=True)), dtype=np.int64)
        store = SparseLedgers(n, 1e-6, np.full(n, 0.9))
        for i in rows.tolist():
            kind = data.draw(st.sampled_from(["warm", "zero", "elsewhere", "none"]))
            cols = R if kind in ("warm", "zero") else outside if kind == "elsewhere" else R[:0]
            if cols.size:
                cols = cols[: data.draw(st.integers(1, 5))]
                store.add_compact(i, cols, np.full(cols.size, 0 if kind == "zero" else 25))
        store.advance_epoch()
        caps = np.array(data.draw(st.lists(st.sampled_from([1, 375, 87_500]),
                                           min_size=rows.size, max_size=rows.size)))
        rowpos = np.array(data.draw(st.permutations(range(rows.size))), dtype=np.int64)
        want = np.empty((rows.size, R.size), dtype=np.int64)
        numpy_eq2_rows(store, rows, rowpos, R, caps, want)
        got = np.empty_like(want)
        copied = kernels.sparse_rows_eq2(store, rows, rowpos, R, caps, got)
        assert np.array_equal(got, want)
        assert np.array_equal(got.sum(axis=1), caps[np.argsort(rowpos)])
        cold = [cap for i, cap in zip(rows.tolist(), caps.tolist()) if not store.row_at(i, R).any()]
        assert copied == len(cold) - len(set(cold))

    def test_guard_overflow_raises(self):
        """A row past the apportionment guard raises OverflowError on
        the native rows as on the numpy rule; at the guard both agree."""
        limit = np.iinfo(np.int64).max
        cap = np.array([MAX_RATE], dtype=np.int64)
        total = limit // (MAX_RATE + 1)
        store = SparseLedgers(4, 1e-6, np.ones(4))
        R = np.arange(2, dtype=np.int64)
        one = np.zeros(1, dtype=np.int64)
        store.add_compact(0, R, np.array([total - 1, 1]))
        M = np.full((1, 2), -1, dtype=np.int64)
        kernels.sparse_rows_eq2(store, one, one, R, cap, M)
        assert np.array_equal(M, eq2_grants(cap, store.row_at(0, R)[None]))
        store.add_compact(0, R[:1], np.array([1]))
        for rows in (
            lambda: kernels.sparse_rows_eq2(store, one, one, R, cap, M),
            lambda: eq2_grants(cap, store.row_at(0, R)[None]),
            lambda: kernels.rows_shared(one, store.row_at(0, R), cap, M),
        ):
            with pytest.raises(OverflowError):
                rows()


@needs_native
class TestSparseCredit:
    """The credit phase's kernels: the scatter over every receiver row
    shape (its in-place path, the exact-row shortcut among them, and the
    python merge's hand-off), and the rate fold against numpy."""

    @pytest.mark.parametrize("weight", [1.0, 7.5])
    @pytest.mark.parametrize("lag", [2, 5])
    @pytest.mark.parametrize("n", [16, 40, 300])
    def test_scatter_every_shape_matches_dense_fold(self, n, lag, weight):
        """Rows equal to the givers, sharing one index array, a strict
        superset, one giver swapped for another peer, one giver missing,
        empty and dense islands, half at lag 0 and half at ``lag``:
        exactly the first three are credited in place, and with
        ``add_compact`` merging the rest the store equals the eagerly
        decayed dense fold."""
        rng = np.random.default_rng([n, lag, int(weight * 2)])
        for _ in range(8):
            assert fastpath.scatter_matches(kernels, rng, weight, lag=lag, n=n)

    def test_exact_rows_catch_up_once(self):
        """An exact row credited over two slots decays by the flushes it
        missed, once each, then gains the credit."""
        store = SparseLedgers(10, 1e-6, np.full(10, 0.5))
        act = np.array([1, 4, 7], dtype=np.int64)
        store.add_compact(3, act, np.array([100, 7, 1], dtype=np.int64))
        for _ in range(2):
            store.advance_epoch()
        R = np.array([3], dtype=np.int64)
        M = np.array([[10], [20], [30]], dtype=np.int64)
        ok = np.zeros(1, dtype=np.uint8)
        for want in ([35, 21, 30], [27, 30, 45]):
            kernels.sparse_scatter(store, act, R, M, 1.0, ok)
            assert ok[0] == 1
            assert store.row_at(3, act).tolist() == want
            store.advance_epoch()

    @pytest.mark.parametrize("slots", [1, 4, 10, 31])
    def test_rate_fold_matches_numpy(self, slots):
        """The compiled per-peer rate sums equal ``ClassFold``'s numpy
        scatter-adds bit for bit, inside and outside the report window."""
        rng = np.random.default_rng(slots)
        for _ in range(4):
            assert fastpath.fold_matches(kernels, rng, slots)


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

    def test_kernels_load_wherever_a_compiler_exists(self):
        """A kernel that fails its self-check falls back silently, so
        the kernels' tests above would skip rather than fail: where the
        kernels can be built, they must have loaded."""
        if os.environ.get("REPRO_NO_NATIVE") or native._compiler() is None:
            pytest.skip("native kernels disabled or no compiler")
        fastpath.load()
        assert native.status()["fastalloc"] == "ok"
