"""Bit-identity of the batched engine against the reference slot loop.

The batched engine's contract is not "close": every observable output —
rates, indicators, realised capacities, the full allocation tensor, and
the credit ledgers — must match the reference engine *bit for bit*, for
any mix of honest, baseline, and adversarial allocators, with delayed
feedback, forgetting, declared lies, and time-varying capacity.  These
tests enforce that contract for both the native-kernel and pure-numpy
batched paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ColluderAllocator,
    EqualSplitAllocator,
    FreeRiderAllocator,
    GlobalProportionalAllocator,
    IsolationAllocator,
    PeerwiseProportionalAllocator,
    RandomAllocator,
    SelfHoarderAllocator,
    WithholdingAllocator,
)
from repro.sim import (
    AlwaysOn,
    BernoulliDemand,
    NeverRequests,
    PeerConfig,
    ScheduleDemand,
    Simulation,
    StepCapacity,
)
from repro.sim.traces import DiurnalDemand, FlashCrowdDemand, TraceDemand


def assert_equivalent(
    make_configs,
    slots=40,
    seed=3,
    engines=("reference", "batched"),
    **sim_kwargs,
):
    """Run each engine on freshly built configs and compare all bits.

    ``make_configs`` is a zero-argument factory: stateful allocators
    (e.g. :class:`RandomAllocator`) must be fresh per engine so all
    runs consume identical private streams.  The first engine listed is
    the oracle every other engine is compared against.
    """
    sims = {}
    results = {}
    for engine in engines:
        sim = Simulation(make_configs(), seed=seed, engine=engine, **sim_kwargs)
        results[engine] = sim.run(slots, record_allocations=True)
        sims[engine] = sim
    oracle = engines[0]
    ref = results[oracle]
    ref_credit = sims[oracle].credit_matrix()
    for engine in engines[1:]:
        got = results[engine]
        assert ref.rates.tobytes() == got.rates.tobytes(), engine
        assert ref.requesting.tobytes() == got.requesting.tobytes(), engine
        assert ref.capacities.tobytes() == got.capacities.tobytes(), engine
        assert ref.alloc_history.tobytes() == got.alloc_history.tobytes(), engine
        assert ref.mean_alloc.tobytes() == got.mean_alloc.tobytes(), engine
        assert ref_credit.tobytes() == sims[engine].credit_matrix().tobytes(), engine
    return ref


def adversarial_configs():
    """A deliberately nasty 9-peer mix exercising every engine path."""
    return [
        PeerConfig(capacity=800.0, demand=BernoulliDemand(0.7)),
        PeerConfig(
            capacity=500.0,
            demand=AlwaysOn(),
            allocator=GlobalProportionalAllocator(),
            declared_capacity=4000.0,  # lies upward
        ),
        PeerConfig(capacity=300.0, demand=BernoulliDemand(0.5),
                   allocator=FreeRiderAllocator()),
        PeerConfig(capacity=600.0, demand=AlwaysOn(),
                   allocator=ColluderAllocator([1, 3])),
        PeerConfig(capacity=400.0, demand=BernoulliDemand(0.3),
                   allocator=RandomAllocator(seed=11)),
        PeerConfig(capacity=0.0, demand=AlwaysOn()),
        PeerConfig(capacity=700.0, demand=NeverRequests(), forgetting=0.95),
        PeerConfig(
            capacity=StepCapacity([(0, 200.0), (10, 0.0), (25, 900.0)]),
            demand=ScheduleDemand([(5, 30)]),
            allocator=WithholdingAllocator(0.4),
        ),
        PeerConfig(capacity=250.0, demand=BernoulliDemand(0.9),
                   allocator=EqualSplitAllocator()),
    ]


@pytest.mark.parametrize("feedback_interval", [1, 3])
@pytest.mark.parametrize("slot_seconds", [1.0, 10.0])
def test_adversarial_mix_bit_identical(feedback_interval, slot_seconds):
    assert_equivalent(
        adversarial_configs,
        slots=37,
        feedback_interval=feedback_interval,
        slot_seconds=slot_seconds,
    )


def test_numpy_fallback_bit_identical(monkeypatch):
    """With the native kernels disabled the batched path must still match."""
    from repro.sim import engine as engine_mod

    monkeypatch.setattr(engine_mod.fastpath, "load", lambda: None)
    sim = Simulation(adversarial_configs(), engine="batched")
    assert sim.backend == "batched"
    assert_equivalent(adversarial_configs, slots=31, feedback_interval=2)


def test_time_varying_demand_bit_identical():
    def configs():
        return [
            PeerConfig(capacity=500.0,
                       demand=DiurnalDemand(slot_seconds=600.0)),
            PeerConfig(capacity=300.0,
                       demand=FlashCrowdDemand(0.2, 0.95, 10, 25)),
            PeerConfig(capacity=400.0,
                       demand=TraceDemand([1, 0, 1, 1, 0], wrap=False)),
            PeerConfig(capacity=200.0, demand=BernoulliDemand(0.6)),
        ]

    assert_equivalent(configs, slots=300, slot_seconds=600.0)


def test_long_run_crosses_block_boundaries():
    """More slots than the demand/capacity prefetch block (256)."""
    def configs():
        return [
            PeerConfig(capacity=400.0, demand=BernoulliDemand(0.5)),
            PeerConfig(capacity=StepCapacity([(0, 100.0), (300, 700.0)]),
                       demand=AlwaysOn()),
        ]

    assert_equivalent(configs, slots=600)


def test_auto_engine_is_batched():
    configs = [PeerConfig(capacity=100.0, demand=AlwaysOn())]
    assert Simulation(configs, engine="auto").backend.startswith("batched")
    assert Simulation(configs, engine="reference").backend == "reference"
    with pytest.raises(ValueError):
        Simulation(configs, engine="bogus")


def test_single_peer_and_all_idle():
    assert_equivalent(
        lambda: [PeerConfig(capacity=100.0, demand=AlwaysOn())], slots=10
    )
    assert_equivalent(
        lambda: [
            PeerConfig(capacity=100.0, demand=NeverRequests()),
            PeerConfig(capacity=200.0, demand=NeverRequests()),
        ],
        slots=10,
    )


ALLOCATOR_FACTORIES = [
    PeerwiseProportionalAllocator,
    GlobalProportionalAllocator,
    IsolationAllocator,
    EqualSplitAllocator,
    FreeRiderAllocator,
    SelfHoarderAllocator,
    lambda: WithholdingAllocator(0.5),
    lambda: RandomAllocator(seed=5),
]


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_equivalence_property(data):
    """Random networks: any allocator mix, demand, and feedback delay."""
    n = data.draw(st.integers(min_value=1, max_value=7))
    chosen = [
        data.draw(st.sampled_from(ALLOCATOR_FACTORIES), label=f"alloc{i}")
        for i in range(n)
    ]
    caps = [
        data.draw(
            st.floats(min_value=0.0, max_value=2000.0), label=f"cap{i}"
        )
        for i in range(n)
    ]
    gammas = [
        data.draw(st.floats(min_value=0.0, max_value=1.0), label=f"gamma{i}")
        for i in range(n)
    ]
    forgettings = [
        data.draw(st.sampled_from([1.0, 0.9]), label=f"forget{i}")
        for i in range(n)
    ]
    feedback = data.draw(st.integers(min_value=1, max_value=4))
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

    assert_equivalent(make_configs, slots=25, seed=seed,
                      feedback_interval=feedback)
