"""The shard kernel's row order is invisible from outside.

``ShardKernel`` keeps its ledger store and deferred-feedback buffer in
member-table order (sampling class, then allocator kind, then id), so a
slot's requesters are one run of store rows per requesting class.  Ids
are translated only where they cross the API.  These populations interleave
their sampling classes in id order, so the row order is far from the
identity, and every observable output of ``sparse`` and ``procs`` must
still equal ``reference`` and ``batched`` bit for bit: step matrices,
full and ``history="none"`` runs, the credit matrix and each peer's
ledger view.  They must pass on the numpy fallback too
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
    ConstantCapacity,
    PeerConfig,
    ScheduleDemand,
    Simulation,
    StepCapacity,
    sparse_population_sim,
)

SLOTS = 14
ALLOCATORS = {
    "eq2": PeerwiseProportionalAllocator,
    "eq3": GlobalProportionalAllocator,
    "free": FreeRiderAllocator,
    "equal": EqualSplitAllocator,
}


@st.composite
def populations(draw):
    """A recipe for a population whose classes interleave in id order.

    Demand labels pick one of a few shared schedules (several of which
    request in the same slot) or a Bernoulli stream of the peer's own;
    capacity labels pick a shared constant or stepped profile.  Peers
    ``n // 2 - 1`` and ``n // 2`` share both labels, so a two-way split
    cuts a class.  Dense islands, Equation (3) givers with declared
    overrides and forgetting peers are drawn among them.
    """
    n = draw(st.integers(6, 24))
    schedules = draw(st.lists(
        st.lists(st.integers(0, SLOTS - 1), min_size=1, max_size=SLOTS, unique=True),
        min_size=1, max_size=4,
    ))
    demand = draw(st.lists(st.integers(-1, len(schedules) - 1), min_size=n, max_size=n))
    capacity = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    mid = n // 2
    demand[mid] = demand[mid - 1] = max(demand[mid - 1], 0)
    capacity[mid] = capacity[mid - 1]
    kinds = draw(st.lists(
        st.sampled_from(["eq2"] * 5 + ["eq3", "free", "equal"]), min_size=n, max_size=n
    ))
    forgetting = draw(st.lists(st.sampled_from([1.0, 1.0, 0.9, 0.7]), min_size=n, max_size=n))
    declared = draw(st.lists(
        st.one_of(st.none(), st.sampled_from([50.0, 900.0])), min_size=n, max_size=n
    ))
    return schedules, demand, capacity, kinds, forgetting, declared


def factory(recipe):
    """A fresh ``configs`` builder for ``recipe``: shared process
    objects per label, as the sampling classes group them."""
    schedules, demand, capacity, kinds, forgetting, declared = recipe

    def make():
        demands = [ScheduleDemand([(t, t + 1) for t in ts]) for ts in schedules]
        capacities = [
            ConstantCapacity(0.0),
            ConstantCapacity(300.0),
            ConstantCapacity(125.5),
            StepCapacity([(0, 400.0), (5, 0.0), (9, 250.0)]),
        ]
        return [
            PeerConfig(
                capacity=capacities[capacity[i]],
                demand=demands[d] if d >= 0 else BernoulliDemand(0.5),
                allocator=ALLOCATORS[kinds[i]](),
                forgetting=forgetting[i],
                declared_capacity=declared[i],
            )
            for i, d in enumerate(demand)
        ]

    return make


def observe(make, engine, feedback_interval, seed=7):
    """Everything a caller can read of one engine: step triples, a full
    run with its allocations, a ``history="none"`` summary, the credit
    matrix and (in-process engines) every peer's ledger counts."""
    args = dict(seed=seed, feedback_interval=feedback_interval, **engine)
    with Simulation(make(), **args) as sim:
        steps = [tuple(a.tobytes() for a in sim.step()) for _ in range(SLOTS)]
    with Simulation(make(), **args) as sim:
        full = sim.run(SLOTS, record_allocations=True)
        full = [
            getattr(full, name).tobytes()
            for name in ("rates", "requesting", "capacities", "mean_alloc", "alloc_history")
        ]
        credit = sim.credit_matrix().tobytes()
        peers = sim.peers
        ledgers = None if peers is None else [
            (p.ledger.counts().tobytes(), p.ledger.credits.tobytes()) for p in peers
        ]
    with Simulation(make(), **args) as sim:
        summary = sim.run(SLOTS, history="none").summary
        summary = {
            key: np.asarray(value).tobytes() if isinstance(value, (list, np.ndarray)) else value
            for key, value in summary.items()
        }
    return {"steps": steps, "full": full, "credit": credit, "ledgers": ledgers, "summary": summary}


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(recipe=populations(), feedback_interval=st.sampled_from([1, 2, 3]))
def test_interleaved_classes_match_reference_and_batched(recipe, feedback_interval):
    make = factory(recipe)
    want = observe(make, {"engine": "reference"}, feedback_interval)
    assert observe(make, {"engine": "batched"}, feedback_interval) == want
    assert observe(make, {"engine": "sparse"}, feedback_interval) == want
    got = observe(make, {"engine": "procs", "workers": 2}, feedback_interval)
    assert got.pop("ledgers") is None
    want.pop("ledgers")
    assert got == want


def test_a_split_class_shares_its_rows_across_shards():
    """The drawn populations' split really cuts a class: peers
    ``n // 2 - 1`` and ``n // 2`` fall on either side of a two-way
    split and share a class, and the store's rows run class-major."""
    recipe = ([[0, 1, 2], [1, 3]], [0, 1, -1, 0, 0, 1, 0, 1], [1, 0, 1, 1, 1, 0, 1, 0],
              ["eq2"] * 8, [1.0] * 8, [None] * 8)
    kernel = Simulation(factory(recipe)(), engine="sparse")._shards.kernel
    assert kernel._class_of[3] == kernel._class_of[4]
    assert (np.diff(kernel._class_of[kernel._members]) >= 0).all()
    assert kernel._members.tolist() != list(range(8))


def test_sparse_population_requesters_are_one_ascending_run():
    """In ``sparse_population_sim``'s population (cohort ``i mod 64``, so
    a cohort's members are 64 ids apart) every slot's requester rows
    form one ascending contiguous run, and they are the rows of the ids
    the slot returns."""
    sim = sparse_population_sim(n=4000, cohorts=64, givers=16, slots=256, engine="sparse")
    kernel = sim._shards.kernel
    for t in range(192):
        R = kernel.sample(t)
        rows = kernel._uncredited.pop(t)[2]
        assert R.size and rows.size == R.size
        assert rows.tolist() == list(range(rows[0], rows[0] + rows.size)), t
        assert (kernel._members[rows] + kernel.lo).tolist() == R.tolist(), t
        assert (np.diff(R) > 0).all()


def test_credit_takes_the_requesters_its_slot_sampled():
    """``credit`` scatters into the rows ``sample`` kept for the slot, so
    takers of another size than that slot's requesters are refused."""
    sim = sparse_population_sim(n=200, cohorts=4, givers=4, slots=8, engine="sparse")
    kernel = sim._shards.kernel
    R = kernel.sample(0)
    act, M = kernel.alloc(0, R)
    with pytest.raises(ValueError, match="sampled"):
        kernel.credit(0, act, R[1:], M[:, 1:], M.sum(axis=0)[1:] / 125, 1.0, True)
