"""Sampling classes: the shard kernel samples per class, not per peer.

Peers sharing a deterministic demand group and a capacity group form
one class; an rng-drawn or slot-sampled peer is a class of its own.
The kernel's prefetch tables are ``(block, classes)``; a slot's
requesters and active givers are gathered from the member table of the
requesting / positive-capacity classes, and the dense vectors are
spread through ``class_of`` only on demand.  These tests pin that the
slot vectors are the batched engine's bits whatever the block length or
the shard split, and that neither the tables nor a warm slot's
allocations grow with ``n``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import GlobalProportionalAllocator, PeerwiseProportionalAllocator
from repro.sim import (
    BernoulliDemand,
    CapacityProfile,
    DemandProcess,
    DutyCycleDemand,
    PeerConfig,
    ScheduleDemand,
    Simulation,
    StepCapacity,
    sparse_population_sim,
)
from repro.sim import shard as shard_mod

N = 48
SLOTS = 60


class SlotDemand(DemandProcess):
    """Not blockable: sampled slot by slot, from the peer's own stream."""

    def __init__(self, gamma: float):
        self.gamma_ = gamma

    def sample(self, t, rng):
        return bool(rng.random() < self.gamma_) or t % 7 == 0


class SlotCapacity(CapacityProfile):
    """Not blockable: queried slot by slot."""

    def __init__(self, base: float):
        self.base = base

    def value(self, t):
        return self.base + (t * 7) % 13


def mixed_configs():
    """Every kind of class the kernel builds, three peers per shared one."""
    cohorts = [ScheduleDemand([(t, t + 2) for t in range(c, SLOTS, 5)]) for c in range(3)]
    duty = DutyCycleDemand([1, 3, 4], slot_seconds=900.0)  # hour flips every 4 slots
    stepped = StepCapacity([(0, 300.0), (9, 0.0), (23, 700.0)])
    configs = []
    for i in range(N):
        kind = i % 8
        if kind < 3:
            demand = cohorts[kind]
        elif kind == 3:
            demand = duty
        elif kind == 4:
            demand = BernoulliDemand(0.4)
        elif kind == 5:
            demand = SlotDemand(0.3)
        elif kind == 6:
            demand = ScheduleDemand([(4, 30), (2, 8)])  # equal-valued, distinct objects
        else:
            demand = cohorts[0]
        if kind == 7:
            capacity = SlotCapacity(90.0 + i)
        else:
            capacity = (stepped, 250.0)[(i // 8) % 2]
        configs.append(
            PeerConfig(
                capacity=capacity,
                demand=demand,
                allocator=(
                    GlobalProportionalAllocator() if i % 5 == 0
                    else PeerwiseProportionalAllocator()
                ),
                declared_capacity=1000.0 if i % 9 == 4 else None,
            )
        )
    return configs


def steps(sim, slots=SLOTS):
    """Every slot's ``step()`` triple, as bytes."""
    with sim:
        return [tuple(a.tobytes() for a in sim.step()) for _ in range(slots)]


@pytest.fixture(params=[4, 7, 33, None], ids=lambda b: f"block={b or 'default'}")
def block(request, monkeypatch):
    """Force the kernel's time block to the given length by the budget
    its length rule divides (``None`` keeps the default rule)."""
    if request.param is not None:
        monkeypatch.setattr(shard_mod, "_BLOCK_BYTES_BUDGET", 9 * N * request.param)
    return request.param


@pytest.fixture(scope="module")
def batched():
    return steps(Simulation(mixed_configs(), seed=11, engine="batched"))


def test_sparse_step_matches_batched(block, batched):
    sim = Simulation(mixed_configs(), seed=11, engine="sparse")
    kernel = sim._shards.kernel
    assert kernel._block == (block or shard_mod.TIME_BLOCK)
    assert kernel.classes < N
    assert steps(sim) == batched


@pytest.mark.parametrize("workers", [2, 3])
def test_procs_step_matches_batched(block, batched, workers):
    assert steps(Simulation(mixed_configs(), seed=11, engine="procs", workers=workers)) == batched


def test_classes_share_demand_and_capacity_groups():
    kernel = Simulation(mixed_configs(), engine="sparse")._shards.kernel
    configs = mixed_configs()
    class_of = kernel._class_of
    assert kernel._req_block.shape == kernel._cap_block.shape == (kernel._block, kernel.classes)
    # Solo peers (rng-drawn or slot-sampled demand or capacity) are
    # classes of their own; everyone else shares with a group mate.
    solo = [
        i for i, c in enumerate(configs)
        if isinstance(c.demand, (BernoulliDemand, SlotDemand))
        or isinstance(c.capacity, SlotCapacity)
    ]
    counts = np.bincount(class_of, minlength=kernel.classes)
    assert (counts[class_of[solo]] == 1).all()
    shared = np.setdiff1d(np.arange(N), solo)
    assert (counts[class_of[shared]] == 3).all()
    # (3 cohorts, duty, the equal-valued schedules) x (stepped, 250.0):
    # ten shared classes of three peers.
    assert np.unique(class_of[shared]).size == 10
    assert kernel.classes == 10 + len(solo)


def test_prefetch_tables_do_not_grow_with_n():
    """A 64-cohort population's prefetch share of ``memory_bytes`` is
    the same per prefetched slot at n = 10^4 and 10^5: 65 classes wide,
    not n.  The block-length rule (unchanged, sized from n) gives the
    larger population the shorter block, so in total it holds fewer."""
    per_slot, totals = [], []
    for n in (10_000, 100_000):
        sim = sparse_population_sim(n=n, cohorts=64, givers=16, slots=256, engine="sparse")
        kernel = sim._shards.kernel
        (stats,) = sim.shard_stats()
        index = kernel._class_of.nbytes + kernel._members.nbytes + kernel._cells.nbytes
        prefetch = stats["memory_bytes"] - kernel.store.nbytes - index
        assert kernel.classes == 65
        assert kernel._req_block.shape == (kernel._block, 65)
        per_slot.append(prefetch / kernel._block)
        totals.append(prefetch)
    assert per_slot[0] == per_slot[1] == 65 * 9
    assert totals[1] <= totals[0]


def test_warm_slot_peak_follows_the_active_set_not_n():
    """A warm slot allocates for its requesters and givers, not for the
    population: the tracemalloc peak of one slot at n = 10^5 (64 cohorts
    of ~1562) is within 1.5x of the same at n = 2 * 10^4 (13 cohorts of
    ~1537).  A per-peer vector built per slot (800 kB of capacities at
    10^5) breaks the bound."""
    peaks = []
    for n, cohorts in ((20_000, 13), (100_000, 64)):
        sim = sparse_population_sim(n=n, cohorts=cohorts, givers=16, slots=512, engine="sparse")
        sim.run(2 * cohorts, history="none")  # every cohort has met the givers
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sim._step_compact()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks
