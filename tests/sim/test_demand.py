"""Unit tests for demand processes."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.sim import (
    AlwaysOn,
    BernoulliDemand,
    DutyCycleDemand,
    ManualDemand,
    NeverRequests,
    RandomHoursDemand,
    ScheduleDemand,
    as_demand,
)


@pytest.fixture
def demand_rng():
    return np.random.default_rng(5)


class TestBernoulli:
    def test_frequency_matches_gamma(self, demand_rng):
        d = BernoulliDemand(0.3)
        hits = sum(d.sample(t, demand_rng) for t in range(20_000))
        assert 0.27 < hits / 20_000 < 0.33

    def test_extremes(self, demand_rng):
        assert not any(BernoulliDemand(0.0).sample(t, demand_rng) for t in range(100))
        assert all(BernoulliDemand(1.0).sample(t, demand_rng) for t in range(100))

    def test_gamma_property(self):
        assert BernoulliDemand(0.4).gamma == 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliDemand(1.5)


class TestConstantProcesses:
    def test_always_on(self, demand_rng):
        d = AlwaysOn()
        assert d.sample(0, demand_rng) and d.sample(10**6, demand_rng)
        assert d.gamma == 1.0

    def test_never(self, demand_rng):
        d = NeverRequests()
        assert not d.sample(0, demand_rng)
        assert d.gamma == 0.0


class TestSchedule:
    def test_half_open_intervals(self, demand_rng):
        d = ScheduleDemand([(10, 20), (30, 31)])
        assert not d.sample(9, demand_rng)
        assert d.sample(10, demand_rng)
        assert d.sample(19, demand_rng)
        assert not d.sample(20, demand_rng)
        assert d.sample(30, demand_rng)
        assert not d.sample(31, demand_rng)

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            ScheduleDemand([(5, 3)])

    @given(
        intervals=st.lists(
            st.tuples(st.integers(-20, 60), st.integers(0, 15)).map(
                lambda p: (p[0], p[0] + p[1])
            ),
            max_size=12,
        ),
        t0=st.integers(-10, 70),
        count=st.integers(0, 40),
    )
    # unsorted, overlapping, empty (a == b), and windows that straddle
    # an interval's start, its end, or both
    @example(intervals=[(30, 40), (5, 9), (7, 12)], t0=8, count=4)
    @example(intervals=[(3, 3), (10, 20)], t0=18, count=5)
    @example(intervals=[(10, 20)], t0=5, count=30)
    @example(intervals=[(10, 20), (20, 25)], t0=19, count=2)
    @example(intervals=[], t0=0, count=3)
    def test_sample_block_matches_per_slot(self, intervals, t0, count):
        d = ScheduleDemand(intervals)
        block = d.sample_block(t0, count, None)
        assert block.dtype == bool and block.shape == (count,)
        assert block.tolist() == [d.sample(t, None) for t in range(t0, t0 + count)]


class TestDutyCycle:
    def test_hours_of_day(self, demand_rng):
        d = DutyCycleDemand([0, 23], slot_seconds=1.0)
        assert d.sample(0, demand_rng)  # hour 0
        assert not d.sample(3600, demand_rng)  # hour 1
        assert d.sample(23 * 3600, demand_rng)  # hour 23
        assert d.sample(24 * 3600, demand_rng)  # wraps to hour 0

    def test_slot_seconds_scaling(self, demand_rng):
        d = DutyCycleDemand([1], slot_seconds=60.0)
        assert not d.sample(0, demand_rng)
        assert d.sample(60, demand_rng)  # slot 60 = minute 60 = hour 1

    def test_gamma(self):
        assert DutyCycleDemand(range(12)).gamma == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            DutyCycleDemand([24])
        with pytest.raises(ValueError):
            DutyCycleDemand([0], slot_seconds=0)


class TestRandomHours:
    def test_correct_number_of_hours(self):
        d = RandomHoursDemand(hours_per_day=12, seed=1)
        assert len(d.active_hours) == 12

    def test_deterministic_per_seed(self):
        a = RandomHoursDemand(12, seed=9)
        b = RandomHoursDemand(12, seed=9)
        assert a.active_hours == b.active_hours

    def test_seeds_differ(self):
        hours = {frozenset(RandomHoursDemand(12, seed=s).active_hours) for s in range(8)}
        assert len(hours) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomHoursDemand(25)


class TestManual:
    def test_flag_driven(self, demand_rng):
        d = ManualDemand()
        assert not d.sample(0, demand_rng)
        d.requesting = True
        assert d.sample(1, demand_rng)


class TestAsDemand:
    def test_coercions(self):
        assert isinstance(as_demand(0.5), BernoulliDemand)
        assert isinstance(as_demand(True), AlwaysOn)
        assert isinstance(as_demand(False), NeverRequests)
        assert isinstance(as_demand([(0, 5)]), ScheduleDemand)
        d = AlwaysOn()
        assert as_demand(d) is d

    def test_unknown_rejected(self):
        with pytest.raises(TypeError):
            as_demand("sometimes")
