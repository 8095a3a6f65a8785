"""Shard-split invariance of the one ``ShardKernel``, without a transport.

``engine="sparse"`` is one kernel over ``[0, n)`` and ``engine="procs"``
is W kernels behind pipes; both lean on the same claim: *any*
contiguous split of the peers yields the reference loop's bits.  Here
W kernels are driven in one process — no fork, no pipes — handing them
the concatenated requesters and declared capacities and routing each
shard its column block of ``M`` by ``searchsorted`` exactly as the
coordinator does, so the claim
is tested as a cheap hypothesis property rather than through the
dozen examples the forking suite can afford.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    EqualSplitAllocator,
    GlobalProportionalAllocator,
    IsolationAllocator,
    PeerwiseProportionalAllocator,
    RandomAllocator,
    WithholdingAllocator,
)
from repro.core.ledger import DEFAULT_INITIAL_CREDIT
from repro.sim import (
    AlwaysOn,
    BernoulliDemand,
    NeverRequests,
    PeerConfig,
    ScheduleDemand,
    Simulation,
    StepCapacity,
    StreamingMetrics,
    fastpath,
)
from repro.sim.shard import ShardKernel, column_sums, has_islands, needs_declared

from test_engine_batched import adversarial_configs
from test_sampling_classes import SlotCapacity, SlotDemand

SHARD_COUNTS = (1, 2, 3, 5)
SUMS = (
    "rate_sum",
    "request_count",
    "capacity_sum",
    "isolation_sum",
    "gain_sum",
    "window_rate_sum",
)


both_backends = pytest.mark.parametrize("native", [True, False])


@contextmanager
def backend(native):
    """The compiled kernels, or the numpy fallback every kernel built
    inside the block gets (``REPRO_NO_NATIVE=1`` forces it for both)."""
    if native:
        yield
    else:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fastpath, "load", lambda: None)
            yield


def split_sample(kernels, t, islands):
    """``(R, declared_R, declared)`` of slot ``t`` over W kernels: what
    the procs coordinator stacks from its workers' sample replies and
    broadcasts with ``alloc``."""
    parts = []
    for k in kernels:
        R = k.sample(t)
        parts.append((
            R,
            k.declared_of(R) if k.needs_declared else None,
            k.vectors()[2] if islands else None,
        ))
    return [None if p[0] is None else np.concatenate(p) for p in zip(*parts)]


def make_kernels(configs, workers, seed=3, feedback_interval=1):
    """``workers`` kernels over a contiguous split of ``configs``."""
    n = len(configs)
    workers = min(workers, n)
    bounds = [(w * n) // workers for w in range(workers + 1)]
    return [
        ShardKernel(
            configs,
            lo,
            hi,
            seed=seed,
            initial_credit=DEFAULT_INITIAL_CREDIT,
            feedback_interval=feedback_interval,
            needs_declared=needs_declared(configs),
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]


def run_split(
    configs, workers, slots, seed=3, feedback_interval=1, slot_seconds=1.0
):
    """Step ``workers`` kernels over a contiguous split of ``configs``.

    Returns ``(rates, credit, metrics)``: the ``(slots, n)`` rate
    record, the stacked ``(n, n)`` credit matrix and the merged
    :class:`StreamingMetrics`.
    """
    n = len(configs)
    kernels = make_kernels(configs, workers, seed, feedback_interval)
    islands = has_islands(configs)
    for kernel in kernels:
        kernel.begin_metrics(slots)
    rates = np.zeros((slots, n))
    metrics = StreamingMetrics(n, slots)
    for t in range(slots):
        R, declared_R, declared = split_sample(kernels, t, islands)
        blocks = [k.alloc(t, R, declared_R, declared) for k in kernels]
        act = np.concatenate([a for a, _ in blocks])
        M = np.vstack([m for _, m in blocks])
        rates_c = column_sums(M)  # once, over the whole M
        rates[t, R] = rates_c
        flush = (t + 1) % feedback_interval == 0
        for k in kernels:
            c0, c1 = np.searchsorted(R, (k.lo, k.hi))
            dump = k.credit(
                t,
                act,
                R[c0:c1],
                np.ascontiguousarray(M[:, c0:c1]),
                rates_c[c0:c1],
                slot_seconds,
                flush,
                False,
            )
            assert dump is None
    for k in kernels:
        metrics.place(k.lo, k.end_metrics())
    credit = np.vstack([k.materialize() for k in kernels])
    return rates, credit, metrics


def assert_same(a, b, label):
    rates_a, credit_a, metrics_a = a
    rates_b, credit_b, metrics_b = b
    assert rates_a.tobytes() == rates_b.tobytes(), label
    assert credit_a.tobytes() == credit_b.tobytes(), label
    for name in SUMS:
        assert (
            getattr(metrics_a, name).tobytes() == getattr(metrics_b, name).tobytes()
        ), (label, name)


def reference_run(make_configs, slots, seed, feedback_interval, slot_seconds=1.0):
    """The same triple from the per-peer oracle loop."""
    kwargs = dict(
        seed=seed,
        engine="reference",
        feedback_interval=feedback_interval,
        slot_seconds=slot_seconds,
    )
    sim = Simulation(make_configs(), **kwargs)
    rates = sim.run(slots).rates
    credit = sim.credit_matrix()
    summary = Simulation(make_configs(), **kwargs).run(slots, history="none").summary
    metrics = StreamingMetrics(len(sim.configs), slots)
    for name in SUMS:
        getattr(metrics, name)[:] = summary[name]
    return rates, credit, metrics


@both_backends
@pytest.mark.parametrize("feedback_interval", [1, 3])
def test_adversarial_mix_any_split_matches_reference(native, feedback_interval):
    ref = reference_run(adversarial_configs, 37, 3, feedback_interval, 7.5)
    with backend(native):
        for workers in SHARD_COUNTS:
            got = run_split(
                adversarial_configs(),
                workers,
                37,
                feedback_interval=feedback_interval,
                slot_seconds=7.5,
            )
            assert_same(ref, got, f"W={workers}")


@both_backends
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_random_networks_any_split_matches_reference(native, data):
    """Random mixes: islands and fast rows, forgetting, any feedback."""
    factories = [
        PeerwiseProportionalAllocator,
        GlobalProportionalAllocator,
        IsolationAllocator,
        EqualSplitAllocator,
        lambda: WithholdingAllocator(0.5),
        lambda: RandomAllocator(seed=5),
    ]
    n = data.draw(st.integers(min_value=1, max_value=9))
    chosen = data.draw(
        st.lists(st.sampled_from(factories), min_size=n, max_size=n)
    )
    caps = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=2000.0), min_size=n, max_size=n)
    )
    gammas = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)
    )
    forgettings = data.draw(
        st.lists(st.sampled_from([1.0, 0.9]), min_size=n, max_size=n)
    )
    feedback = data.draw(st.sampled_from([1, 3]))
    seed = data.draw(st.integers(min_value=0, max_value=10_000))

    def make_configs():
        return [
            PeerConfig(
                capacity=caps[i],
                demand=BernoulliDemand(gammas[i]),
                allocator=chosen[i](),
                forgetting=forgettings[i],
            )
            for i in range(n)
        ]

    ref = reference_run(make_configs, 18, seed, feedback)
    with backend(native):
        for workers in SHARD_COUNTS:
            got = run_split(
                make_configs(), workers, 18, seed=seed, feedback_interval=feedback
            )
            assert_same(ref, got, f"W={workers}")


@both_backends
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_compact_selection_matches_dense_derivation(native, data):
    """Over any contiguous split, the requesters, the active eq2 / eq3
    givers with their capacities and the declared capacities at ``R``
    that the kernels read from class rows are what the dense vectors of
    the reference loop give: ``flatnonzero(requesting)``, ``eq2[caps[eq2]
    > 0]`` and ``declared[R]``."""
    n = data.draw(st.integers(min_value=1, max_value=24))
    allocators = [
        PeerwiseProportionalAllocator,
        GlobalProportionalAllocator,
        IsolationAllocator,
        lambda: WithholdingAllocator(0.5),
    ]
    cohorts = [ScheduleDemand([(t, t + 2) for t in range(c, 16, 3)]) for c in range(3)]
    demands = [
        lambda: AlwaysOn(),
        lambda: NeverRequests(),
        lambda: cohorts[0],
        lambda: cohorts[1],
        lambda: cohorts[2],
        lambda: BernoulliDemand(0.4),
        lambda: SlotDemand(0.3),
    ]
    stepped = StepCapacity([(0, 300.0), (5, 0.0), (9, 700.0)])
    capacities = [
        lambda: 0.0,
        lambda: 250.0,
        lambda: stepped,
        lambda: SlotCapacity(90.0),
    ]
    pick = lambda options: st.lists(  # noqa: E731
        st.integers(0, len(options) - 1), min_size=n, max_size=n
    )
    alloc_of, demand_of, cap_of = (data.draw(pick(o)) for o in (allocators, demands, capacities))
    overrides = data.draw(
        st.lists(st.sampled_from([None, None, 0.0, 800.0]), min_size=n, max_size=n)
    )
    workers = data.draw(st.integers(min_value=1, max_value=4))
    seed = data.draw(st.integers(min_value=0, max_value=10_000))

    def make_configs():
        return [
            PeerConfig(
                capacity=capacities[cap_of[i]](),
                demand=demands[demand_of[i]](),
                allocator=allocators[alloc_of[i]](),
                declared_capacity=overrides[i],
            )
            for i in range(n)
        ]

    kind = np.array(alloc_of)
    eq2, eq3 = np.flatnonzero(kind == 0), np.flatnonzero(kind == 1)
    ref = Simulation(make_configs(), seed=seed, engine="reference")
    with backend(native):
        kernels = make_kernels(make_configs(), workers, seed)
    for t in range(16):
        _, requesting, caps = ref.step()
        declared = np.array([p.declared_at(t) for p in ref.peers])
        R = np.concatenate([k.sample(t) for k in kernels])
        assert R.dtype == np.int64
        assert R.tobytes() == np.flatnonzero(requesting).astype(np.int64).tobytes()
        for k in kernels:
            mine = R[(R >= k.lo) & (R < k.hi)]
            assert k.declared_of(mine).tobytes() == declared[mine].tobytes()
            for (act, act_caps), rows in zip(k.active_givers(), (eq2, eq3)):
                rows = rows[(rows >= k.lo) & (rows < k.hi)]
                want = rows[caps[rows] > 0.0].astype(np.int64)
                assert act.tobytes() == want.tobytes(), t
                assert act_caps.tobytes() == caps[want].tobytes(), t


@pytest.mark.parametrize("engine,workers", [("sparse", None), ("procs", 2)])
def test_single_requester_rates_match_reference(engine, workers):
    """One requester, eight givers: ``M`` is a single column, which numpy
    would sum pairwise where the dense engines add row by row."""
    capacities = [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 6.8168291616433585, 3.6]

    def make_configs():
        return [
            PeerConfig(capacity=c, demand=BernoulliDemand(float(i == 8)))
            for i, c in enumerate(capacities)
        ]

    ref = Simulation(make_configs(), engine="reference").run(18)
    with Simulation(make_configs(), engine=engine, workers=workers) as sim:
        rates = sim.run(9, history="rates").rates
        summary = sim.run(9, history="none").summary
    assert ref.rates[:9].tobytes() == rates.tobytes()
    assert ref.rates[9:].sum(axis=0).tobytes() == summary["rate_sum"].tobytes()


@pytest.mark.parametrize("feedback_interval", [1, 3])
def test_trace_totals_match_reference(feedback_interval):
    """The traced per-slot and per-flush totals (replayed from the
    compact block and the shards' pending dumps) are the dense sums."""

    def events(engine, workers=None):
        with obs.observability(tracing=True, reset=True):
            with Simulation(
                adversarial_configs(),
                seed=3,
                engine=engine,
                workers=workers,
                feedback_interval=feedback_interval,
            ) as sim:
                sim.run(12, history="rates")
            return [
                (e.name, e.fields)
                for e in obs.TRACER.events()
                if e.name in ("sim.slot", "sim.feedback")
            ]

    ref = events("reference")
    assert len(ref) == 12 + 12 // feedback_interval
    assert events("sparse") == ref
    assert events("procs", workers=2) == ref
