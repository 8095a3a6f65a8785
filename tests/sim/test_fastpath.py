"""The runtime-compiled allocation kernels and their fallback gating.

The native library is optional: everything must work (identically) with
``load()`` returning ``None``.  When it does load, every kernel must be
bit-identical to the numpy implementation it replaces — that is the
self-check's own gate, re-verified here directly so a kernel bug fails
a named test instead of silently downgrading the engine.
"""

import numpy as np
import pytest

from repro import native
from repro.core.allocation import (
    PeerwiseProportionalAllocator,
    enforce_feasibility_rows,
)
from repro.core.baselines import GlobalProportionalAllocator
from repro.sim import fastpath

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
        rng = np.random.default_rng(4)
        for n in (1, 7, 63, 64, 65, 200):
            ledger = rng.random((n, n))
            alloc = rng.random((n, n)) * 100.0
            for w in (1.0, 0.3, 10.0):
                want = ledger + alloc.T * w
                got = ledger.copy()
                kernels.ledger_tadd(got, alloc, w)
                assert got.tobytes() == want.tobytes()

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


class TestThreadCount:
    """``thread_count`` is the one reader of ``REPRO_SIM_THREADS``: env,
    then the scheduler affinity mask, then the raw CPU count."""

    def test_env_wins_uncapped(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("REPRO_SIM_THREADS", "12")
        assert fastpath.thread_count() == 12
        monkeypatch.setenv("REPRO_SIM_THREADS", "0")
        assert fastpath.thread_count() == 1
        monkeypatch.setenv("REPRO_SIM_THREADS", "many")  # unparsable: ignored
        assert fastpath.thread_count() == 2

    def test_affinity_mask_beats_cpu_count(self, monkeypatch):
        """Pinned to 2 of 64 CPUs, the kernels start 2 pthreads, not 8."""
        monkeypatch.delenv("REPRO_SIM_THREADS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {3, 7}, raising=False)
        assert fastpath.thread_count() == 2
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(64)))
        assert fastpath.thread_count() == 8  # the cap

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_THREADS", raising=False)
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        assert fastpath.thread_count() == 3
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert fastpath.thread_count() == 1
