"""Unit tests for the time-slotted simulation engine."""

import numpy as np
import pytest

from repro.core import FreeRiderAllocator, IsolationAllocator, PeerwiseProportionalAllocator
from repro.sim import AlwaysOn, BernoulliDemand, NeverRequests, PeerConfig, Simulation


def saturated(caps, **kwargs):
    return Simulation(
        [PeerConfig(capacity=c, demand=AlwaysOn()) for c in caps], **kwargs
    )


class TestStep:
    def test_allocation_matrix_shape(self):
        sim = saturated([100.0, 200.0])
        alloc, requesting, caps = sim.step()
        assert alloc.shape == (2, 2)
        assert requesting.tolist() == [True, True]
        assert caps.tolist() == [100.0, 200.0]

    def test_capacity_conserved(self):
        sim = saturated([100.0, 200.0, 300.0])
        for _ in range(20):
            alloc, _, caps = sim.step()
            assert np.all(alloc.sum(axis=1) <= caps + 1e-9)
            assert np.all(alloc >= 0)

    def test_slot_counter_advances(self):
        sim = saturated([10.0])
        assert sim.t == 0
        sim.step()
        sim.step()
        assert sim.t == 2

    def test_idle_users_receive_nothing(self):
        sim = Simulation(
            [
                PeerConfig(capacity=100.0, demand=AlwaysOn()),
                PeerConfig(capacity=100.0, demand=NeverRequests()),
            ]
        )
        for _ in range(10):
            alloc, _, _ = sim.step()
            assert np.all(alloc[:, 1] == 0.0)

    def test_ledgers_credited(self):
        sim = saturated([100.0, 100.0])
        before = sim.peers[0].ledger.total()
        sim.step()
        assert sim.peers[0].ledger.total() > before

    def test_slot_seconds_scales_credit(self):
        fast = saturated([100.0, 100.0], slot_seconds=1.0)
        slow = saturated([100.0, 100.0], slot_seconds=10.0)
        fast.step()
        slow.step()
        assert slow.peers[0].ledger.total() == pytest.approx(
            10 * fast.peers[0].ledger.total(), rel=1e-6
        )


class TestRun:
    def test_result_shapes(self):
        result = saturated([10.0, 20.0]).run(50)
        assert result.rates.shape == (50, 2)
        assert result.requesting.shape == (50, 2)
        assert result.capacities.shape == (50, 2)
        assert result.mean_alloc.shape == (2, 2)
        assert result.alloc_history is None

    def test_record_allocations(self):
        result = saturated([10.0, 20.0]).run(5, record_allocations=True)
        assert result.alloc_history.shape == (5, 2, 2)
        assert np.allclose(result.alloc_history.mean(axis=0), result.mean_alloc)

    def test_rates_are_column_sums(self):
        result = saturated([10.0, 20.0]).run(5, record_allocations=True)
        assert np.allclose(result.rates, result.alloc_history.sum(axis=1))

    def test_runs_continue(self):
        sim = saturated([10.0])
        sim.run(10)
        assert sim.t == 10
        sim.run(5)
        assert sim.t == 15

    def test_deterministic_given_seed(self):
        def run():
            sim = Simulation(
                [PeerConfig(capacity=100.0, demand=BernoulliDemand(0.5)) for _ in range(3)],
                seed=42,
            )
            return sim.run(200)

        a, b = run(), run()
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.requesting, b.requesting)

    def test_seeds_differ(self):
        def run(seed):
            sim = Simulation(
                [PeerConfig(capacity=100.0, demand=BernoulliDemand(0.5)) for _ in range(3)],
                seed=seed,
            )
            return sim.run(200)

        assert not np.array_equal(run(1).requesting, run(2).requesting)

    def test_validation(self):
        with pytest.raises(ValueError):
            Simulation([])
        with pytest.raises(ValueError):
            saturated([1.0]).run(0)
        with pytest.raises(ValueError):
            Simulation([PeerConfig(capacity=1.0, demand=True)], slot_seconds=0)
        # A ledger credit is floor(grant * slot_seconds).
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                Simulation([PeerConfig(capacity=1.0, demand=True)], slot_seconds=bad)


class TestConservationInvariants:
    def test_total_rate_bounded_by_total_capacity(self):
        result = saturated([128.0, 256.0, 1024.0]).run(300)
        assert np.all(result.rates.sum(axis=1) <= result.capacities.sum(axis=1) + 1e-9)

    def test_saturated_capacity_fully_used(self):
        """When everyone requests, Equation (2) leaves nothing idle."""
        result = saturated([128.0, 256.0, 1024.0]).run(300)
        assert np.allclose(
            result.rates.sum(axis=1), result.capacities.sum(axis=1), rtol=1e-9
        )

    def test_free_rider_capacity_withheld(self):
        sim = Simulation(
            [
                PeerConfig(capacity=100.0, demand=AlwaysOn(), allocator=FreeRiderAllocator()),
                PeerConfig(capacity=100.0, demand=AlwaysOn()),
            ]
        )
        result = sim.run(100)
        # Total delivered < total capacity: the free rider serves no one.
        assert result.rates.sum() <= 100.0 * 100 + 1e-6

    def test_isolation_allocator_gives_own_capacity(self):
        sim = Simulation(
            [
                PeerConfig(capacity=100.0, demand=AlwaysOn(), allocator=IsolationAllocator()),
                PeerConfig(capacity=50.0, demand=AlwaysOn(), allocator=IsolationAllocator()),
            ]
        )
        result = sim.run(20)
        assert np.allclose(result.rates, [[100.0, 50.0]] * 20)


def test_free_riders_run_batched():
    """The benchmark's dense population (n = 1024, Equation (2), every
    32nd peer a free rider) has no peer on the per-peer path."""
    configs = [
        PeerConfig(
            capacity=100.0 + (i % 32) * 25.0,
            demand=BernoulliDemand(0.5),
            allocator=FreeRiderAllocator() if i % 32 == 31 else PeerwiseProportionalAllocator(),
        )
        for i in range(1024)
    ]
    sim = Simulation(configs, seed=1, engine="batched")
    assert sim._slow_rows == []


def test_labels_built_once_and_equal_across_runs_and_engines():
    """Labels come from the configs once per simulation: every run of
    one simulation, and every engine, reports the same tuple."""

    def configs():
        return [
            PeerConfig(capacity=100.0, demand=AlwaysOn(), label="home"),
            PeerConfig(capacity=50.0, demand=BernoulliDemand(0.5)),
            PeerConfig(capacity=0.0, demand=NeverRequests(), label="idle"),
        ]

    want = ("home", "peer 1", "idle")
    for engine in ("reference", "batched", "sparse"):
        sim = Simulation(configs(), engine=engine)
        first, second = sim.run(3).labels, sim.run(2, history="none").labels
        assert first == second == want, engine
        assert first is second, engine
    with Simulation(configs(), engine="procs", workers=2) as sim:
        assert sim.run(3, history="none").labels == want

