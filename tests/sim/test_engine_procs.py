"""Bit-identity and behaviour of the process-sharded engine (PR 9).

The procs engine partitions the peers into contiguous shards, runs each
shard's sparse ledger rows in its own worker process and exchanges
cross-shard credit as explicit message batches — yet its contract is
the batched/sparse contract unchanged: every observable output must
match the reference slot loop *bit for bit*, at any worker count,
native kernels or numpy fallback.  These tests reuse the equivalence
harness of ``test_engine_batched.py`` with ``engine="procs"`` and add
the procs-only surfaces: worker-count invariance, auto-selection with
the ``workers`` trace field, lifecycle (close/context manager) and the
scale scenario plumbing.
"""

from multiprocessing import connection, shared_memory

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    EqualSplitAllocator,
    FreeRiderAllocator,
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
)

from test_engine_batched import adversarial_configs, assert_equivalent


def procs_engines(workers):
    """Engine spec accepted by :func:`assert_equivalent_procs`."""
    return ("reference", "sparse") + tuple(("procs", w) for w in workers)


def assert_equivalent_procs(make_configs, workers=(1, 2, 4), **kwargs):
    """The batched-engine harness, extended with procs at worker counts.

    ``assert_equivalent`` compares single-process engines; this wrapper
    additionally runs ``engine="procs"`` at each worker count against
    the same reference oracle and closes the coordinators afterwards.
    """
    slots = kwargs.pop("slots", 24)
    seed = kwargs.pop("seed", 3)
    ref_sim = Simulation(make_configs(), seed=seed, engine="reference", **kwargs)
    ref = ref_sim.run(slots, record_allocations=True)
    ref_credit = ref_sim.credit_matrix()
    for w in workers:
        sim = Simulation(
            make_configs(), seed=seed, engine="procs", workers=w, **kwargs
        )
        with sim:
            got = sim.run(slots, record_allocations=True)
            credit = sim.credit_matrix()
        assert ref.rates.tobytes() == got.rates.tobytes(), w
        assert ref.requesting.tobytes() == got.requesting.tobytes(), w
        assert ref.capacities.tobytes() == got.capacities.tobytes(), w
        assert ref.alloc_history.tobytes() == got.alloc_history.tobytes(), w
        assert ref.mean_alloc.tobytes() == got.mean_alloc.tobytes(), w
        assert ref_credit.tobytes() == credit.tobytes(), w
    return ref


@pytest.mark.parametrize("feedback_interval", [1, 3])
def test_adversarial_mix_bit_identical(feedback_interval):
    assert_equivalent_procs(
        adversarial_configs,
        slots=37,
        feedback_interval=feedback_interval,
    )


def test_slot_seconds_weighting_bit_identical():
    assert_equivalent_procs(
        adversarial_configs, slots=20, slot_seconds=7.5, workers=(2,)
    )


def test_forgetting_mix_bit_identical():
    """Lazy per-epoch decay must survive the shard split mid-epoch."""

    def configs():
        return [
            PeerConfig(
                capacity=200.0 + 50.0 * i,
                demand=BernoulliDemand(0.4 + 0.05 * i),
                forgetting=0.9 if i % 2 else 1.0,
            )
            for i in range(7)
        ]

    assert_equivalent_procs(
        configs, slots=30, feedback_interval=2, workers=(1, 3)
    )


def test_numpy_fallback_bit_identical(monkeypatch):
    """Without native kernels (inherited by workers) procs still matches."""
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    from repro import native

    monkeypatch.delitem(native._LOADED, "fastalloc", raising=False)
    sim = Simulation(adversarial_configs(), seed=3, engine="procs", workers=2)
    assert sim.backend == "procs"
    with sim:
        got = sim.run(24, record_allocations=True)
    ref = Simulation(adversarial_configs(), seed=3, engine="reference").run(
        24, record_allocations=True
    )
    assert ref.rates.tobytes() == got.rates.tobytes()
    assert ref.alloc_history.tobytes() == got.alloc_history.tobytes()


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_random_networks_bit_identical(data):
    """Random mixes: islands, fast paths, any feedback, any shard count."""
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
    workers = data.draw(st.sampled_from([1, 2, 4]))

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

    assert_equivalent_procs(
        make_configs,
        slots=18,
        seed=seed,
        feedback_interval=feedback,
        workers=(workers,),
    )


# -- history modes ----------------------------------------------------------


def _history_configs():
    return [
        PeerConfig(capacity=400.0, demand=BernoulliDemand(0.5)),
        PeerConfig(capacity=StepCapacity([(0, 100.0), (9, 700.0)]),
                   demand=AlwaysOn()),
        PeerConfig(capacity=300.0, demand=ScheduleDemand([(3, 14)])),
        PeerConfig(capacity=500.0, demand=NeverRequests()),
    ]


def test_history_modes_consistent():
    with Simulation(_history_configs(), seed=4, engine="procs",
                    workers=2) as sim:
        full = sim.run(20)
    with Simulation(_history_configs(), seed=4, engine="procs",
                    workers=2) as sim:
        none = sim.run(20, history="none")

    assert none.rates is None and none.summary is not None
    assert none.summary["rate_sum"].tobytes() == full.rates.sum(
        axis=0
    ).tobytes()
    assert none.summary["request_count"].tobytes() == full.requesting.sum(
        axis=0
    ).tobytes()


class _DeclaredIsland(GlobalProportionalAllocator):
    """Equation (3) by a subclass: a dense island that reads the whole
    declared vector its ``allocate()`` receives."""


def _message_mix():
    """Eq. 2 rows, Eq. 3 rows with declared-capacity lies, free-riding
    dense islands and declared-reading ones, with time-varying capacity."""
    configs = []
    for i in range(11):
        configs.append(PeerConfig(
            capacity=StepCapacity([(0, 100.0 + 40 * i), (7, 60.0 * (i % 4))]),
            demand=BernoulliDemand(0.3 + 0.05 * (i % 5)),
            allocator=(
                PeerwiseProportionalAllocator(),
                GlobalProportionalAllocator(),
                FreeRiderAllocator(),
                _DeclaredIsland(),
            )[i % 4],
            declared_capacity=900.0 if i in (4, 9) else None,
        ))
    return configs


@pytest.mark.parametrize("feedback_interval", [1, 3])
def test_runs_without_shared_memory(monkeypatch, feedback_interval):
    """Only pipe messages cross the process boundary: with shared
    memory unavailable, procs at W = 1-3 still matches sparse bit for
    bit on an eq2 / eq3 / dense-island mix, in every history mode."""

    def refuse(*args, **kwargs):
        raise OSError("shared memory is unavailable")

    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
    kw = dict(seed=7, feedback_interval=feedback_interval)
    with Simulation(_message_mix(), engine="sparse", **kw) as sim:
        want = sim.run(29, record_allocations=True)
        want_none = sim.run(12, history="none")
        want_credit = sim.credit_matrix()
    for w in (1, 2, 3):
        with Simulation(_message_mix(), engine="procs", workers=w, **kw) as sim:
            got = sim.run(29, record_allocations=True)
            got_none = sim.run(12, history="none")
            credit = sim.credit_matrix()
        for name in ("rates", "requesting", "capacities", "alloc_history"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (w, name)
        for name, value in want_none.summary.items():
            assert np.asarray(got_none.summary[name]).tobytes() == np.asarray(
                value
            ).tobytes(), (w, name)
        assert credit.tobytes() == want_credit.tobytes(), w


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


def test_warm_slots_send_no_per_peer_vector(monkeypatch):
    """Without dense islands a slot's messages carry the active set
    only: no array crossing a pipe during a streaming run has a
    dimension of the population's size."""
    n = 512
    configs = [
        PeerConfig(
            capacity=800.0 if i % 64 == 0 else 0.0,
            demand=NeverRequests() if i % 64 == 0 else BernoulliDemand(0.2),
            allocator=GlobalProportionalAllocator() if i == 64 else PeerwiseProportionalAllocator(),
        )
        for i in range(n)
    ]
    shapes = []
    last = [None]
    send, recv = connection.Connection.send, connection.Connection.recv

    def spy_send(self, obj):
        last[0] = obj[0]
        if last[0] in ("sample", "alloc", "credit"):
            shapes.extend(a.shape for a in _arrays(obj))
        return send(self, obj)

    def spy_recv(self):
        obj = recv(self)
        if last[0] in ("sample", "alloc", "credit"):
            shapes.extend(a.shape for a in _arrays(obj))
        return obj

    with Simulation(configs, seed=2, engine="procs", workers=2) as sim:
        monkeypatch.setattr(connection.Connection, "send", spy_send)
        monkeypatch.setattr(connection.Connection, "recv", spy_recv)
        sim.run(10, history="none")
    # Below half of n, so a shard's whole range (n / 2 here) would show.
    assert shapes and max(max(s, default=0) for s in shapes) < n // 2


# -- auto-selection and its trace event ------------------------------------


def _auto_event(monkeypatch, n=10):
    """Build an ``engine="auto"`` simulation of ``n`` peers with the
    sparse threshold lowered to 4; returns it and its selection event."""
    from repro.sim import engine as engine_mod

    monkeypatch.setattr(engine_mod, "_SPARSE_N_THRESHOLD", 4)
    configs = [
        PeerConfig(capacity=100.0, demand=BernoulliDemand(0.5))
        for _ in range(n)
    ]
    with obs.observability(tracing=True, reset=True):
        sim = Simulation(configs, engine="auto")
        events = [
            e for e in obs.TRACER.events() if e.name == "sim.engine_selected"
        ]
    (event,) = events
    return sim, event


def test_auto_never_selects_procs(monkeypatch):
    """``auto`` is a two-way rule: past every threshold, on a machine
    with CPUs to spare, it still lands on the in-process kernel."""
    import sys

    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.delitem(sys.modules, "repro.sim.procs", raising=False)
    sim, event = _auto_event(monkeypatch, n=100)
    assert sim.backend.startswith("sparse")
    assert event.fields["engine"] == "sparse"
    assert event.fields["workers"] == 0
    assert "n=100 >= sparse threshold 4" in event.fields["reason"]
    # Nothing on the way imported the process-sharded engine.
    assert "repro.sim.procs" not in sys.modules


def test_auto_keeps_sparse_on_one_cpu(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    sim, event = _auto_event(monkeypatch)
    assert sim.backend.startswith("sparse")
    assert event.fields["engine"] == "sparse"
    assert event.fields["workers"] == 0


def test_workers_with_auto_is_rejected():
    """``workers`` is the procs engine's argument; ``auto`` never picks
    procs, so the combination has no meaning left."""
    with pytest.raises(ValueError, match="workers only applies to engine='procs'"):
        Simulation(_history_configs(), engine="auto", workers=2)
    with pytest.raises(ValueError, match="workers"):
        sparse_population(n=40, cohorts=8, givers=4, slots=4, workers=2)


def test_default_workers_follow_usable_cpus(monkeypatch):
    """An explicit ``procs`` without ``workers`` takes ``min(4, usable
    CPUs)``: the scheduler affinity mask, not the machine's CPU count."""
    from repro.sim import procs

    monkeypatch.setattr("os.cpu_count", lambda: 64)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(6)), raising=False)
    assert procs.worker_count(100, None) == 4
    assert procs.worker_count(3, None) == procs.worker_count(3, 32) == 3
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {3, 7})
    with Simulation(_history_configs(), engine="procs") as sim:
        assert sim._workers == 2


def test_explicit_workers_event_field():
    with obs.observability(tracing=True, reset=True):
        sim = Simulation(_history_configs(), engine="procs", workers=3)
        events = [
            e for e in obs.TRACER.events() if e.name == "sim.engine_selected"
        ]
    with sim:
        pass
    (event,) = events
    assert event.fields["engine"] == "procs"
    assert event.fields["workers"] == 3


# -- lifecycle and validation ----------------------------------------------


def test_workers_capped_by_population():
    with Simulation(_history_configs(), engine="procs", workers=32) as sim:
        assert sim._workers == len(_history_configs())
        sim.run(5)


def test_close_is_idempotent_and_context_manager():
    sim = Simulation(_history_configs(), seed=1, engine="procs", workers=2)
    sim.run(5)
    sim.close()
    sim.close()
    with Simulation(_history_configs(), seed=1, engine="procs", workers=2) as s:
        s.run(5)
        assert s.memory_bytes() > 0
        assert s.credit_matrix().shape == (4, 4)


def test_use_after_close_raises_runtime_error():
    """A closed procs simulation says so, instead of leaking ``OSError:
    handle is closed`` from multiprocessing; in-process engines have
    nothing to close and keep working."""
    sim = Simulation(_history_configs(), seed=1, engine="procs", workers=2)
    sim.run(3, history="none")
    sim.close()
    for use in (
        lambda: sim.run(2),
        lambda: sim.run(2, history="none"),
        sim.step,
        sim.credit_matrix,
        sim.memory_bytes,
        sim.shard_stats,
    ):
        with pytest.raises(RuntimeError, match="simulation is closed"):
            use()
    sim.close()
    local = Simulation(_history_configs(), seed=1, engine="sparse")
    local.close()
    assert local.run(2).rates.shape == (2, 4)


def test_shard_stats_cover_the_population():
    with Simulation(_history_configs(), seed=1, engine="procs", workers=3) as sim:
        sim.run(6, history="none")
        shards = sim.shard_stats()
        state = sim.memory_bytes()
    assert [(s["lo"], s["hi"]) for s in shards] == [(0, 1), (1, 2), (2, 4)]
    assert sum(s["entries"] for s in shards) > 0
    # memory_bytes is the shards' state: nothing else is resident.
    assert state == sum(s["memory_bytes"] for s in shards)
    (one,) = Simulation(_history_configs(), engine="sparse").shard_stats()
    assert (one["lo"], one["hi"]) == (0, 4)
    assert Simulation(_history_configs(), engine="batched").shard_stats() == []


def test_validation_errors():
    with pytest.raises(ValueError, match="workers"):
        Simulation(_history_configs(), engine="sparse", workers=2)
    with pytest.raises(ValueError, match="workers"):
        Simulation(_history_configs(), engine="procs", workers=0)
    with pytest.raises(ValueError, match="engine"):
        Simulation(_history_configs(), engine="bogus")


# -- scale scenario plumbing ------------------------------------------------


def test_sparse_population_matches_reference_at_small_n():
    kwargs = dict(n=40, cohorts=8, givers=4, slots=16, seed=3)
    ref = sparse_population(engine="reference", history="full", **kwargs)
    procs = sparse_population(
        engine="procs", workers=3, history="full", **kwargs
    )
    assert ref.rates.tobytes() == procs.rates.tobytes()
    assert ref.requesting.tobytes() == procs.requesting.tobytes()


def test_million_peer_smoke_procs_shrunk():
    report = million_peer_smoke(
        n=1500, slots=3, cohorts=12, givers=4, engine="procs", workers=2
    )
    assert report["backend"].startswith("procs")
    assert report["workers"] == 2
    assert report["state_bytes"] > 0
    assert report["peak_rss_bytes"] > 0
    assert report["rate_sum_total"] > 0
