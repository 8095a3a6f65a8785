"""Whole-byte ledgers make engine agreement a property of the arithmetic.

Grants and ledgers are integers, so no result may depend on how a sum is
ordered, tiled or split.  Every engine — ``reference``, ``batched``,
``sparse``, ``procs`` at a drawn worker count — and W shard kernels cut
at random points, with the compact rates summed over a shuffled row
order and the shards credited in a shuffled order, must give the
reference loop's bits; and every slot conserves bytes exactly: a row
never grants more than its capacity, an Equation (2) row with requesters
grants exactly its capacity, and the ledgers hold every byte granted.

Tier-1 budget: 5 s (it reads ~3 s on a 2 vCPU host: 25 examples, each
forking up to three ``procs`` workers).
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    EqualSplitAllocator,
    FreeRiderAllocator,
    GlobalProportionalAllocator,
    IsolationAllocator,
    PeerwiseProportionalAllocator,
    RandomAllocator,
    WithholdingAllocator,
)
from repro.core.apportion import BYTES_PER_KBIT, rate_bytes
from repro.core.ledger import DEFAULT_INITIAL_CREDIT
from repro.sim import BernoulliDemand, PeerConfig, Simulation, fastpath
from repro.sim.shard import ShardKernel, column_sums, has_islands, needs_declared

FACTORIES = [
    PeerwiseProportionalAllocator,
    GlobalProportionalAllocator,
    IsolationAllocator,
    EqualSplitAllocator,
    lambda: WithholdingAllocator(0.5),
    lambda: RandomAllocator(seed=5),
]
SLOTS = 12


def run_engine(make_configs, seed, feedback, **engine):
    with Simulation(make_configs(), seed=seed, feedback_interval=feedback, **engine) as sim:
        result = sim.run(SLOTS, record_allocations=True)
        return result, sim.credit_matrix()


def run_cut(make_configs, seed, feedback, cuts, rng):
    """W kernels over ``[0, n)`` cut at ``cuts``; each slot's rates are
    summed over a shuffled row order of ``M`` and the shards credited
    in a shuffled order."""
    configs = make_configs()
    n = len(configs)
    bounds = [0, *cuts, n]
    kernels = [
        ShardKernel(
            configs, lo, hi, seed=seed, initial_credit=DEFAULT_INITIAL_CREDIT,
            feedback_interval=feedback, needs_declared=needs_declared(configs),
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]
    islands = has_islands(configs)
    rates = np.zeros((SLOTS, n))
    for t in range(SLOTS):
        R = np.concatenate([k.sample(t) for k in kernels])
        declared_R = np.concatenate([k.declared_of(R[(R >= k.lo) & (R < k.hi)]) for k in kernels])
        declared = np.concatenate([k.vectors()[2] for k in kernels]) if islands else None
        blocks = [k.alloc(t, R, declared_R, declared) for k in kernels]
        act = np.concatenate([a for a, _ in blocks])
        M = np.vstack([m for _, m in blocks])
        shuffled = M[rng.permutation(M.shape[0])].sum(axis=0) / BYTES_PER_KBIT
        assert shuffled.tobytes() == column_sums(M).tobytes()
        rates[t, R] = shuffled
        for w in rng.permutation(len(kernels)).tolist():
            k = kernels[w]
            c0, c1 = np.searchsorted(R, (k.lo, k.hi))
            k.credit(t, act, R[c0:c1], np.ascontiguousarray(M[:, c0:c1]),
                     shuffled[c0:c1], 1.0, (t + 1) % feedback == 0)
    return rates, np.vstack([k.materialize() for k in kernels])


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_any_order_split_or_engine_gives_equal_bits_and_exact_bytes(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    chosen = data.draw(st.lists(st.sampled_from(FACTORIES), min_size=n, max_size=n))
    caps = data.draw(st.lists(st.floats(0.0, 2000.0), min_size=n, max_size=n))
    gammas = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    forgetting = data.draw(st.lists(st.sampled_from([1.0, 0.9]), min_size=n, max_size=n))
    feedback = data.draw(st.sampled_from([1, 3]))
    seed = data.draw(st.integers(0, 10_000))
    workers = data.draw(st.integers(1, 3))
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, n - 1)), max_size=3)) - {n})
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def make_configs():
        return [
            PeerConfig(
                capacity=caps[i],
                demand=BernoulliDemand(gammas[i]),
                allocator=chosen[i](),
                forgetting=forgetting[i],
            )
            for i in range(n)
        ]

    ref, ref_credit = run_engine(make_configs, seed, feedback, engine="reference")
    for engine in ({"engine": "batched"}, {"engine": "sparse"},
                   {"engine": "procs", "workers": workers}):
        got, credit = run_engine(make_configs, seed, feedback, **engine)
        assert got.rates.tobytes() == ref.rates.tobytes(), engine
        assert got.alloc_history.tobytes() == ref.alloc_history.tobytes(), engine
        assert credit.tobytes() == ref_credit.tobytes(), engine
    rates, credit = run_cut(make_configs, seed, feedback, cuts, rng)
    assert rates.tobytes() == ref.rates.tobytes(), cuts
    assert credit.tobytes() == ref_credit.tobytes(), cuts

    # Exact conservation, read off the reference's grants.
    grants = np.rint(ref.alloc_history * BYTES_PER_KBIT).astype(np.int64)
    assert np.array_equal(grants / BYTES_PER_KBIT, ref.alloc_history)
    budgets = rate_bytes(ref.capacities)
    sent = grants.sum(axis=2)
    assert np.all(sent <= budgets)
    eq2 = np.array([type(a) is PeerwiseProportionalAllocator for a in
                    (c.allocator for c in make_configs())])
    live = ref.requesting.any(axis=1)
    assert np.array_equal(sent[live][:, eq2], budgets[live][:, eq2])
    if all(f == 1.0 for f in forgetting):
        assert ref_credit.sum() == grants.sum()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_batched_compact_block_native_and_numpy_equal_reference(data):
    """The batched engine's compact grant block, on the compiled kernels
    and on the numpy body, gives the reference loop's bits: Equation (2)
    and (3) rows, free riders and the other batched allocators, slow
    rows, delayed feedback, fractional or long slots and forgetting;
    through ``run`` at both histories and through ``step()``'s dense
    matrix."""
    n = data.draw(st.integers(min_value=1, max_value=12))
    chosen = data.draw(st.lists(st.sampled_from([*FACTORIES, FreeRiderAllocator]),
                                min_size=n, max_size=n))
    caps = data.draw(st.lists(st.floats(0.0, 2000.0), min_size=n, max_size=n))
    gammas = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    forgetting = data.draw(st.lists(st.sampled_from([1.0, 0.9]), min_size=n, max_size=n))
    feedback = data.draw(st.sampled_from([1, 3]))
    slot_seconds = data.draw(st.sampled_from([1.0, 0.3, 7.5]))
    seed = data.draw(st.integers(0, 10_000))

    def make_sim(engine):
        configs = [
            PeerConfig(capacity=caps[i], demand=BernoulliDemand(gammas[i]),
                       allocator=chosen[i](), forgetting=forgetting[i])
            for i in range(n)
        ]
        return Simulation(configs, seed=seed, feedback_interval=feedback,
                          slot_seconds=slot_seconds, engine=engine)

    def run(engine, native=True):
        with patch.object(fastpath, "load", fastpath.load if native else lambda: None):
            full, streaming = make_sim(engine), make_sim(engine)
        result = full.run(SLOTS, record_allocations=True)
        steps = [full.step() for _ in range(3)]
        summary = streaming.run(SLOTS + 3, history="none").summary
        return full.backend, result, steps, summary, full.credit_matrix()

    _, ref, ref_steps, ref_summary, ref_credit = run("reference")
    for native in (True, False):
        backend, got, steps, summary, credit = run("batched", native)
        assert backend == ("batched+native" if native and fastpath.load() else "batched")
        for field in ("rates", "alloc_history", "mean_alloc", "requesting", "capacities"):
            assert getattr(got, field).tobytes() == getattr(ref, field).tobytes(), field
        for (m, req, cap), (m_ref, req_ref, cap_ref) in zip(steps, ref_steps):
            assert m.tobytes() == m_ref.tobytes()
            assert req.tobytes() == req_ref.tobytes() and cap.tobytes() == cap_ref.tobytes()
        for key, value in ref_summary.items():
            assert np.asarray(summary[key]).tobytes() == np.asarray(value).tobytes(), key
        assert credit.tobytes() == ref_credit.tobytes()


@pytest.mark.parametrize("engine", ["batched", "sparse"])
@pytest.mark.parametrize("native", [True, False])
def test_step_with_part_of_the_peers_requesting_equals_reference(engine, native):
    """``step()``'s dense matrix when only some peers request — the slot
    every ``download_concurrently`` runs — is the reference loop's, bit
    for bit: zero columns for the idle peers (and, sharded, zero rows
    for the givers outside the active set), the grants elsewhere."""
    n = 12

    def make_sim(name):
        configs = [
            PeerConfig(capacity=300.0 + 50 * i, allocator=FACTORIES[i % 3](),
                       demand=BernoulliDemand((1.0, 0.0, 0.5)[i % 3]))
            for i in range(n)
        ]
        return Simulation(configs, seed=11, feedback_interval=2, engine=name)

    with patch.object(fastpath, "load", fastpath.load if native else lambda: None):
        got_sim = make_sim(engine)
    ref_sim = make_sim("reference")
    partial = 0
    for _ in range(SLOTS):
        (got, req, cap), (want, req_ref, cap_ref) = got_sim.step(), ref_sim.step()
        assert got.shape == (n, n) and got.tobytes() == want.tobytes()
        assert req.tobytes() == req_ref.tobytes() and cap.tobytes() == cap_ref.tobytes()
        partial += 0 < req.sum() < n
    assert partial == SLOTS
    got_sim.close()
    ref_sim.close()
