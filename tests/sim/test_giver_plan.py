"""The shard kernel's giver plan and the run sums it hands over.

``ShardKernel.alloc`` reads its active eq2 / eq3 givers from a giver plan
built once per class capacity row and reused while the row stays the
same; dense-island givers allocate every slot and are merged into the
plan's order.  A run spanned by one kernel returns that kernel's
``StreamingMetrics`` as they are.  Neither may be visible from outside:
populations whose capacity rows change mid-run (stepped givers, a giver
class that drops to 0 and comes back, slot-sampled capacities) must
give ``sparse`` and ``procs`` the reference loop's bits, and every run
must keep arrays of its own.  They must pass on the numpy fallback too
(``REPRO_NO_NATIVE=1``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    EqualSplitAllocator,
    FreeRiderAllocator,
    GlobalProportionalAllocator,
    PeerwiseProportionalAllocator,
)
from repro.sim import (
    BernoulliDemand,
    CapacityProfile,
    ConstantCapacity,
    PeerConfig,
    ScheduleDemand,
    Simulation,
    StepCapacity,
    sparse_population_sim,
)
from repro.sim import shard

SLOTS = 16
ALLOCATORS = {
    "eq2": PeerwiseProportionalAllocator,
    "eq3": GlobalProportionalAllocator,
    "free": FreeRiderAllocator,
    "equal": EqualSplitAllocator,
}


class SlotCapacity(CapacityProfile):
    """Not blockable: queried slot by slot, 0 in two slots of five."""

    def value(self, t):
        return (0.0, 300.0, 125.5, 0.0, 75.25)[t % 5]


def capacities():
    """Label -> profile: constant, stepped (down to 0 and back up, then to
    another value), slot-sampled, nothing."""
    return [
        ConstantCapacity(300.0),
        StepCapacity([(0, 400.0), (3, 0.0), (6, 400.0), (9, 250.0), (13, 0.0)]),
        SlotCapacity(),
        ConstantCapacity(0.0),
    ]


@st.composite
def populations(draw):
    """A recipe whose class capacity row changes mid-run: peer 0 gives on
    the stepped profile and peer 1 on the slot-sampled one; the rest draw
    shared schedules or Bernoulli streams, any capacity label, and eq2,
    eq3 or dense-island allocators, with declared overrides."""
    n = draw(st.integers(6, 20))
    schedules = draw(st.lists(
        st.lists(st.integers(0, SLOTS - 1), min_size=1, max_size=SLOTS, unique=True),
        min_size=1, max_size=3,
    ))
    demand = draw(st.lists(st.integers(-1, len(schedules) - 1), min_size=n, max_size=n))
    capacity = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    capacity[0], capacity[1] = 1, 2
    kinds = draw(st.lists(
        st.sampled_from(["eq2"] * 4 + ["eq3", "free", "equal"]), min_size=n, max_size=n
    ))
    declared = draw(st.lists(
        st.one_of(st.none(), st.sampled_from([50.0, 900.0])), min_size=n, max_size=n
    ))
    return schedules, demand, capacity, kinds, declared


def factory(recipe):
    """A fresh ``configs`` builder for ``recipe``, sharing one process
    object per label as the sampling classes group them."""
    schedules, demand, capacity, kinds, declared = recipe

    def make():
        demands = [ScheduleDemand([(t, t + 1) for t in ts]) for ts in schedules]
        profiles = capacities()
        return [
            PeerConfig(
                capacity=profiles[capacity[i]],
                demand=demands[d] if d >= 0 else BernoulliDemand(0.5),
                allocator=ALLOCATORS[kinds[i]](),
                declared_capacity=declared[i],
            )
            for i, d in enumerate(demand)
        ]

    return make


def observe(make, feedback_interval, **engine):
    """Step triples, a ``history="none"`` summary and the ledgers."""
    args = dict(seed=11, feedback_interval=feedback_interval, **engine)
    with Simulation(make(), **args) as sim:
        steps = [tuple(a.tobytes() for a in sim.step()) for _ in range(SLOTS)]
    with Simulation(make(), **args) as sim:
        summary = sim.run(SLOTS, history="none").summary
        summary = {
            key: np.asarray(value).tobytes() if isinstance(value, (list, np.ndarray)) else value
            for key, value in summary.items()
        }
        ledgers = sim.credit_matrix().tobytes()
    return {"steps": steps, "summary": summary, "ledgers": ledgers}


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(recipe=populations(), feedback_interval=st.sampled_from([1, 2, 3]))
def test_changing_capacity_rows_match_reference(recipe, feedback_interval):
    make = factory(recipe)
    want = observe(make, feedback_interval, engine="reference")
    assert observe(make, feedback_interval, engine="sparse") == want
    assert observe(make, feedback_interval, engine="procs", workers=2) == want


@pytest.mark.parametrize("engine,workers", [("sparse", None), ("procs", 2), ("batched", None)])
def test_each_run_keeps_its_own_sums(engine, workers):
    """A second ``history="none"`` run and further steps leave the first
    run's summary as it was, and no two runs share an array."""
    with sparse_population_sim(
        n=240, cohorts=4, givers=4, slots=64, engine=engine, workers=workers
    ) as sim:
        first = sim.run(6, history="none").summary
        kept = {key: np.array(value) for key, value in first.items()}
        second = sim.run(6, history="none").summary
        for _ in range(5):
            sim.step()
        sim.run(3, history="none")
        for key, want in kept.items():
            assert np.array(first[key]).tobytes() == want.tobytes(), key
        for key, value in first.items():
            if isinstance(value, (list, np.ndarray)):
                assert value is not second[key], key
                if isinstance(value, np.ndarray):
                    assert not np.shares_memory(value, second[key]), key


def count_plans(patch) -> list:
    """Every giver plan built from here on, in order."""
    built = []

    class Counted(shard._GiverPlan):
        def __init__(self, kernel, key):
            super().__init__(kernel, key)
            built.append(self)

    patch.setattr(shard, "_GiverPlan", Counted)
    return built


def test_constant_capacity_rotation_builds_one_plan(monkeypatch):
    """Over whole cohort rotations of constant-capacity givers the plan is
    built once, and every slot passes the same bound giver arrays."""
    built = count_plans(monkeypatch)
    sim = sparse_population_sim(n=2000, cohorts=8, givers=4, slots=64, engine="sparse")
    kernel = sim._shards.kernel
    acts = set()
    for _ in range(16):
        act = sim._step_compact()[0]
        acts.add(id(act))
        assert act.tolist() == [0, 1, 2, 3]
    sim.run(16, history="none")
    assert len(built) == 1
    assert acts == {id(kernel._plan.act.array)}
    assert not kernel._plan.act.array.flags.writeable


def test_plan_is_rebuilt_only_when_the_capacity_row_changes(monkeypatch):
    """Stepped givers: one plan per run of slots with an equal class
    capacity row, whichever slots request."""
    built = count_plans(monkeypatch)
    stepped = StepCapacity([(0, 400.0), (4, 0.0), (7, 400.0), (10, 250.0)])
    configs = [
        PeerConfig(capacity=stepped, demand=ScheduleDemand([])) for _ in range(3)
    ] + [
        PeerConfig(capacity=0.0, demand=ScheduleDemand([(0, 14)])) for _ in range(5)
    ]
    sim = Simulation(configs, engine="sparse")
    for _ in range(14):
        sim.step()
    # Rows change at slots 4, 7 and 10: four runs of equal rows.
    assert [plan.act2.tolist() for plan in built] == [[0, 1, 2], [], [0, 1, 2], [0, 1, 2]]
    assert [plan.kbps2.tolist() for plan in built] == [[400.0] * 3, [], [400.0] * 3, [250.0] * 3]
