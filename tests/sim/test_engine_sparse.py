"""Bit-identity and behaviour of the sparse ledger engine (PR 8).

The sparse engine holds CSR-style per-peer ledger rows instead of the
dense ``(n, n)`` credit matrix and allocates over the active-request
set only — yet its contract is the same as the batched engine's: every
observable output must match the reference slot loop *bit for bit*,
native kernels or numpy fallback, at any thread count.  These tests
reuse the equivalence harness of ``test_engine_batched.py`` with
``engine="sparse"`` and add the sparse-only surfaces: reduced history
modes, auto-selection (with its ``sim.engine_selected`` trace event),
thread-count invariance, and the scale scenario plumbing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
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
from repro.sim import (
    AlwaysOn,
    BernoulliDemand,
    NeverRequests,
    PeerConfig,
    ScheduleDemand,
    Simulation,
    StepCapacity,
    million_peer_smoke,
    sparse_population,
    sparse_population_sim,
)

from test_engine_batched import adversarial_configs, assert_equivalent

ENGINES = ("reference", "sparse")


@pytest.mark.parametrize("feedback_interval", [1, 3])
@pytest.mark.parametrize("slot_seconds", [1.0, 7.5])
def test_adversarial_mix_bit_identical(feedback_interval, slot_seconds):
    assert_equivalent(
        adversarial_configs,
        slots=37,
        feedback_interval=feedback_interval,
        slot_seconds=slot_seconds,
        engines=ENGINES,
    )


def test_three_engines_agree_on_forgetting_mix():
    """reference, batched and sparse in one run, with lazy decay live."""

    def configs():
        return [
            PeerConfig(capacity=500.0, demand=BernoulliDemand(0.6),
                       forgetting=0.9),
            PeerConfig(capacity=300.0, demand=AlwaysOn(), forgetting=0.8),
            PeerConfig(capacity=700.0, demand=BernoulliDemand(0.4),
                       allocator=GlobalProportionalAllocator(),
                       declared_capacity=1500.0),
            PeerConfig(capacity=0.0, demand=AlwaysOn()),
            PeerConfig(capacity=400.0, demand=NeverRequests(), forgetting=0.95),
        ]

    assert_equivalent(
        configs,
        slots=50,
        feedback_interval=2,
        engines=("reference", "batched", "sparse"),
    )


def test_numpy_fallback_bit_identical(monkeypatch):
    """With native kernels disabled the sparse path must still match."""
    from repro.sim import engine as engine_mod

    monkeypatch.setattr(engine_mod.fastpath, "load", lambda: None)
    sim = Simulation(adversarial_configs(), engine="sparse")
    assert sim.backend == "sparse"
    assert_equivalent(
        adversarial_configs, slots=31, feedback_interval=2, engines=ENGINES
    )


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_sparse_equivalence_property(data):
    """Random networks: fast-path and island allocators, any feedback."""
    factories = [
        PeerwiseProportionalAllocator,
        GlobalProportionalAllocator,
        IsolationAllocator,
        EqualSplitAllocator,
        lambda: WithholdingAllocator(0.5),
        lambda: RandomAllocator(seed=5),
    ]
    n = data.draw(st.integers(min_value=1, max_value=7))
    chosen = [
        data.draw(st.sampled_from(factories), label=f"alloc{i}")
        for i in range(n)
    ]
    caps = [
        data.draw(st.floats(min_value=0.0, max_value=2000.0), label=f"cap{i}")
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
                      feedback_interval=feedback, engines=ENGINES)


# -- reduced history modes -------------------------------------------------


def _history_configs():
    return [
        PeerConfig(capacity=400.0, demand=BernoulliDemand(0.5)),
        PeerConfig(capacity=StepCapacity([(0, 100.0), (9, 700.0)]),
                   demand=AlwaysOn()),
        PeerConfig(capacity=300.0, demand=ScheduleDemand([(3, 14)])),
    ]


@pytest.mark.parametrize("engine", ["batched", "sparse"])
def test_history_modes_consistent(engine):
    full = Simulation(_history_configs(), seed=4, engine=engine).run(20)
    none = Simulation(_history_configs(), seed=4, engine=engine).run(
        20, history="none"
    )

    assert none.rates is None and none.summary is not None
    assert none.slots == full.slots and none.n == full.n
    np.testing.assert_allclose(
        none.summary["rate_sum"], full.rates.sum(axis=0), rtol=1e-12
    )
    np.testing.assert_array_equal(
        none.summary["request_count"], full.requesting.sum(axis=0)
    )
    np.testing.assert_allclose(
        none.mean_download_bandwidth(), full.mean_download_bandwidth(),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        none.isolation_baseline(), full.isolation_baseline(), rtol=1e-12
    )
    np.testing.assert_allclose(
        none.mean_rate_while_requesting(),
        full.mean_rate_while_requesting(),
        rtol=1e-12,
    )


def test_reduced_history_raises_and_roundtrips():
    sim = Simulation(_history_configs(), seed=4)
    none = sim.run(15, history="none")
    full = Simulation(_history_configs(), seed=4).run(15)
    with pytest.raises(ValueError, match="reduced history"):
        none.smoothed_rates()
    # The streaming summary serves the gains and the final window
    # bit-for-bit; any *other* window still needs per-slot history.
    assert (
        none.gains_over_isolation().tobytes()
        == full.gains_over_isolation().tobytes()
    )
    with pytest.raises(ValueError, match="reduced history"):
        none.window_mean_rates(0, 5)

    # Aggregate results survive the JSON round trip bit-exactly.
    from repro.sim import SimulationResult

    back = SimulationResult.from_dict(none.to_dict())
    assert back.rates is None
    assert back.summary["rate_sum"].tobytes() == none.summary["rate_sum"].tobytes()
    assert (
        back.gains_over_isolation().tobytes()
        == none.gains_over_isolation().tobytes()
    )

    # A summary in the pre-streaming format (no gain record) still
    # raises the reduced-history error rather than mis-reporting.
    blob = none.to_dict()
    for key in ("gain_sum", "window_rate_sum", "window_slots", "jain"):
        blob["summary"].pop(key, None)
    old = SimulationResult.from_dict(blob)
    with pytest.raises(ValueError, match="reduced history"):
        old.gains_over_isolation()
    with pytest.raises(ValueError, match="reduced history"):
        old.window_mean_rates(10, 15)

    with pytest.raises(ValueError, match="record_allocations"):
        Simulation(_history_configs(), seed=4).run(
            5, record_allocations=True, history="none"
        )
    for bad in ("bogus", "rates"):
        with pytest.raises(ValueError, match="history"):
            Simulation(_history_configs(), seed=4).run(5, history=bad)


@pytest.mark.parametrize("engine", ["sparse", "batched"])
def test_metrics_time_every_slot_phase(engine):
    """With metrics on, each slot records its sample / allocate / credit
    split — the three histograms ``repro stats`` lists."""
    with obs.observability(reset=True):
        Simulation(_history_configs(), seed=4, engine=engine).run(9, history="none")
        snap = obs.REGISTRY.snapshot()
    for phase in ("sample", "alloc", "credit"):
        hist = snap[f"repro.sim.{phase}_ns"]
        assert hist["count"] == 9, phase
        assert hist["min"] >= 0, phase


# -- auto-selection and its trace event ------------------------------------


def test_auto_selects_sparse_past_threshold(monkeypatch):
    from repro.sim import engine as engine_mod

    monkeypatch.setattr(engine_mod, "_SPARSE_N_THRESHOLD", 4)
    configs = [
        PeerConfig(capacity=100.0, demand=BernoulliDemand(0.5))
        for _ in range(6)
    ]
    with obs.observability(tracing=True, reset=True):
        sim = Simulation(configs, engine="auto")
        events = [
            e for e in obs.TRACER.events() if e.name == "sim.engine_selected"
        ]
    assert sim.backend.startswith("sparse")
    (event,) = events
    assert event.fields["engine"] == "sparse"
    assert event.fields["n"] == 6
    assert "threshold" in event.fields["reason"]


def test_auto_keeps_batched_below_threshold():
    configs = [
        PeerConfig(capacity=100.0, demand=AlwaysOn()) for _ in range(3)
    ]
    with obs.observability(tracing=True, reset=True):
        sim = Simulation(configs, engine="auto")
        events = [
            e for e in obs.TRACER.events() if e.name == "sim.engine_selected"
        ]
    assert sim.backend.startswith("batched")
    (event,) = events
    assert event.fields["engine"] == "batched"


def test_auto_considers_available_memory(monkeypatch):
    from repro.sim import engine as engine_mod

    # Pretend the machine has 1 MiB free: even a small dense matrix
    # (3 arrays of 8 n^2 bytes with the 4x headroom factor) won't fit.
    monkeypatch.setattr(
        engine_mod, "_available_memory_bytes", lambda: 1 << 20
    )
    configs = [
        PeerConfig(capacity=100.0, demand=BernoulliDemand(0.5))
        for _ in range(128)
    ]
    sim = Simulation(configs, engine="auto")
    assert sim.backend.startswith("sparse")


# -- set-up: lazy ledger views, demand/capacity grouping --------------------


def test_peers_are_built_on_first_access(monkeypatch):
    """A sparse build makes no ``PeerState`` for fast-path peers (a run
    never reads one); ``.peers`` builds the list once, when asked."""
    from repro.sim import shard as shard_mod

    built = []

    class CountingPeerState(shard_mod.PeerState):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(shard_mod, "PeerState", CountingPeerState)
    sim = sparse_population_sim(n=60, cohorts=6, givers=3, slots=12, engine="sparse")
    sim.run(12, history="none")
    assert built == []
    peers = sim.peers
    assert built == list(range(60))
    assert sim.peers is peers and len(built) == 60


def test_lazy_peer_ledgers_match_the_reference_view():
    """``sim.peers[i].ledger`` read after the run is the ledger the
    eager list exposed: the reference engine's credits, bit for bit, for
    store-backed rows and for a slow-path dense island alike."""
    sims = {}
    for engine in ("reference", "sparse"):
        sims[engine] = sim = Simulation(adversarial_configs(), seed=3, engine=engine)
        sim.run(20)
    ref, sparse = sims["reference"], sims["sparse"]
    islands = {p.index for p in sparse._shards.kernel._slow_peers}
    assert islands and len(islands) < sparse.n  # both kinds of row present
    for i in range(sparse.n):
        got, want = sparse.peers[i].ledger, ref.peers[i].ledger
        assert got.credits.tobytes() == want.credits.tobytes(), i
        assert got.credit_of(0) == want.credit_of(0)
        assert sparse.peers[i].config is sparse.configs[i]
    # Island states are the live ones the kernel allocates from.
    for peer in sparse._shards.kernel._slow_peers:
        assert sparse.peers[peer.index] is peer
    assert Simulation(adversarial_configs(), engine="batched").peers is not None
    with Simulation(adversarial_configs(), engine="procs", workers=2) as procs:
        assert procs.peers is None


def test_shared_and_equal_valued_processes_share_groups():
    """Grouping is by identity first, by value second: cohorts holding
    one demand/capacity object and cohorts holding equal-valued distinct
    objects land in the same groups and sample identical rows."""
    schedules = [[(t, t + 1) for t in range(c, 24, 3)] for c in range(3)]
    steps = [(0, 300.0), (8, 0.0), (16, 500.0)]

    def configs(shared):
        demands = [ScheduleDemand(s) for s in schedules]
        stepped = StepCapacity(steps)
        return [
            PeerConfig(
                capacity=(stepped if shared else StepCapacity(steps))
                if i % 2
                else 200.0 + (i % 4),
                demand=demands[i % 3] if shared else ScheduleDemand(schedules[i % 3]),
            )
            for i in range(12)
        ]

    def rows(kernel, plan):
        """Each group's peer rows: the peers whose sampling class is
        one of the group's class columns."""
        classes = np.arange(kernel.classes)
        return [
            np.flatnonzero(np.isin(kernel._class_of, classes[cols])).tolist()
            for _, cols in plan
        ]

    groups = {}
    for shared in (True, False):
        kernel = Simulation(configs(shared), engine="sparse")._shards.kernel
        groups[shared] = (
            rows(kernel, kernel._det_demand_groups),
            rows(kernel, kernel._cap_groups),
        )
    assert groups[True] == groups[False]
    assert groups[True][0] == [[0, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8, 11]]
    assert groups[True][1] == [[0, 4, 8], [1, 3, 5, 7, 9, 11], [2, 6, 10]]
    assert_equivalent(lambda: configs(True), slots=24, engines=ENGINES)
    assert_equivalent(lambda: configs(False), slots=24, engines=ENGINES)


# -- scale scenarios --------------------------------------------------------


def test_sparse_population_matches_reference_at_small_n():
    """The cohort scenario itself is engine-agnostic: tiny instance."""
    kwargs = dict(n=40, cohorts=8, givers=4, slots=16, seed=3)
    ref = sparse_population(engine="reference", history="full", **kwargs)
    sparse = sparse_population(engine="sparse", history="full", **kwargs)
    assert ref.rates.tobytes() == sparse.rates.tobytes()
    assert ref.requesting.tobytes() == sparse.requesting.tobytes()


def test_sparse_population_sim_shape_and_accounting():
    sim = sparse_population_sim(n=256, cohorts=16, givers=8, slots=32)
    result = sim.run(32, history="none")
    # Givers never request; every consumer cohort got its slots.
    assert result.summary["request_count"][:8].sum() == 0
    assert result.summary["request_count"][8:].sum() == 32 * (256 - 8) // 16
    assert sim.memory_bytes() > 0
    # At scale the sparse state must undercut even ONE dense credit
    # matrix (8 n^2 bytes); small n is block-buffer dominated, so probe
    # the claim at n=4096 where the dense matrix would be 134 MiB.
    big = sparse_population_sim(
        n=4096, cohorts=16, givers=8, slots=8, engine="sparse"
    )
    big.run(8, history="none")
    assert big.memory_bytes() < 8 * 4096 * 4096 // 4
    with pytest.raises(ValueError):
        sparse_population_sim(n=8, givers=8)
    with pytest.raises(ValueError):
        sparse_population_sim(n=8, cohorts=0)


def test_million_peer_smoke_scaled_down():
    """The smoke scenario's accounting contract at a CI-friendly size."""
    out = million_peer_smoke(n=5000, slots=4, cohorts=64, givers=4)
    assert out["backend"].startswith("sparse")
    assert out["within_cap"]
    assert out["state_bytes"] > 0
    assert out["bytes_per_peer"] < 4096
    assert out["request_slots"] > 0


def test_network_engine_plumbing():
    from repro.sim import FileSharingNetwork

    net = FileSharingNetwork([256.0, 512.0], seed=1, engine="sparse")
    assert net._sim.backend.startswith("sparse")


# -- giver churn -----------------------------------------------------------


def test_churn_procs_matches_sparse_bitwise():
    """Giver generations that join and leave: the sharded stores hold
    the same cumulative entries and give the same summaries as the
    local one."""
    from repro.sim import sparse_population_churn

    kwargs = dict(n=120, cohorts=6, givers_per_phase=3, phases=2,
                  phase_slots=8, seed=5)
    sim = sparse_population_churn(engine="sparse", **kwargs)
    sparse = sim.run(16, history="none")
    with sparse_population_churn(engine="procs", workers=3, **kwargs) as psim:
        procs = psim.run(16, history="none")
        procs_entries = sum(s["entries"] for s in psim.shard_stats())
    for key in sparse.summary:
        assert (
            np.asarray(sparse.summary[key]).tobytes()
            == np.asarray(procs.summary[key]).tobytes()
        ), key
    (stats,) = sim.shard_stats()
    assert procs_entries == stats["entries"]
    # Nothing expires: at most one entry per (consumer, giver ever met).
    assert 0 < stats["entries"] <= (120 - 2 * 3) * 2 * 3


def test_churn_scenario_validation():
    from repro.sim import sparse_population_churn

    with pytest.raises(ValueError):
        sparse_population_churn(n=1)
    with pytest.raises(ValueError):
        sparse_population_churn(n=10, phases=3, givers_per_phase=4)
    with pytest.raises(ValueError):
        sparse_population_churn(n=10, phase_slots=0)
    with pytest.raises(ValueError):
        sparse_population_churn(n=10, cohorts=0)
