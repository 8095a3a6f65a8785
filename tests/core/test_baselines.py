"""Unit tests for the baseline allocators (Eq. 3, isolation, equal split),
and the batched rows of every class-stateless built-in allocator."""

import numpy as np
import pytest

from repro.core import (
    ContributionLedger,
    EqualSplitAllocator,
    FreeRiderAllocator,
    GlobalProportionalAllocator,
    IsolationAllocator,
    SelfHoarderAllocator,
)


def run(allocator, capacity, requesting, declared, index=0):
    n = len(requesting)
    return allocator.allocate(
        index,
        capacity,
        np.asarray(requesting, dtype=bool),
        ContributionLedger(n),
        np.asarray(declared, dtype=float),
        0,
    )


class TestGlobalProportional:
    def test_proportional_to_declared(self):
        out = run(
            GlobalProportionalAllocator(), 100.0, [True, True, True], [10, 30, 60]
        )
        assert np.allclose(out, [10.0, 30.0, 60.0])

    def test_respects_requests(self):
        out = run(GlobalProportionalAllocator(), 100.0, [True, False], [50, 50])
        assert np.allclose(out, [100.0, 0.0])

    def test_zero_over_zero_convention(self):
        # "with the understanding that 0/0 = 0" — no declared capacity
        # among requesters means nothing is allocated.
        out = run(GlobalProportionalAllocator(), 100.0, [True, True], [0, 0])
        assert np.all(out == 0.0)

    def test_gameable_by_declaration(self):
        """The flaw the paper fixes: inflating a declaration inflates the
        received share under Equation (3)."""
        honest = run(GlobalProportionalAllocator(), 100.0, [True, True], [50, 50])
        inflated = run(GlobalProportionalAllocator(), 100.0, [True, True], [500, 50])
        assert inflated[0] > honest[0]


class TestIsolation:
    def test_serves_only_self(self):
        out = run(IsolationAllocator(), 100.0, [True, True, True], [0, 0, 0], index=1)
        assert np.allclose(out, [0.0, 100.0, 0.0])

    def test_nothing_when_own_user_idle(self):
        out = run(IsolationAllocator(), 100.0, [True, False, True], [0, 0, 0], index=1)
        assert np.all(out == 0.0)


class TestEqualSplit:
    def test_even_division(self):
        out = run(EqualSplitAllocator(), 90.0, [True, False, True, True], [0] * 4)
        assert np.allclose(out, [30.0, 0.0, 30.0, 30.0])

    def test_no_requesters(self):
        out = run(EqualSplitAllocator(), 90.0, [False, False], [0, 0])
        assert np.all(out == 0.0)

    def test_credit_blind(self):
        """Equal split ignores history entirely — the property the
        fairness ablation contrasts against."""
        n = 2
        rich = ContributionLedger(n, initial=1.0)
        rich.record_from(0, 1000.0)
        out = EqualSplitAllocator().allocate(
            0, 50.0, np.array([True, True]), rich, np.zeros(n), 0
        )
        assert np.allclose(out, [25.0, 25.0])


class TestAllocatorNames:
    def test_names_distinct(self):
        names = {
            GlobalProportionalAllocator().name,
            IsolationAllocator().name,
            EqualSplitAllocator().name,
        }
        assert len(names) == 3


@pytest.mark.parametrize(
    "cls",
    [FreeRiderAllocator, SelfHoarderAllocator, IsolationAllocator, EqualSplitAllocator],
)
class TestAllocateRows:
    """``allocate_rows`` is the stack of ``allocate`` rows, bit for bit."""

    CAPS = np.array([0.0, 5e-324, 1.0, 1234.5, 0.1, 7e300])
    MASKS = (
        [True, False, True, False, True, True],  # own user requesting or not
        [False] * 6,  # nobody requesting
        [True] * 6,
    )

    @pytest.mark.parametrize("indices", [range(6), [4, 0, 5], [1]])
    @pytest.mark.parametrize("mask", MASKS)
    def test_rows_stack_allocate(self, cls, indices, mask):
        alloc = cls()
        req = np.array(mask)
        idx = np.array(list(indices), dtype=np.int64)
        caps = self.CAPS[idx]
        declared = np.linspace(1.0, 6.0, 6)
        want = np.vstack([
            alloc.allocate(int(i), c, req, ContributionLedger(6), declared, 0)
            for i, c in zip(idx, caps)
        ])
        got = alloc.allocate_rows(idx, caps, req, np.ones((idx.size, 6)), declared, 0)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
