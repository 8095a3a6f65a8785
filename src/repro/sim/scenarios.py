"""The exact simulation scenarios of the paper's evaluation (Section V).

Each function builds and runs one figure's experiment with the paper's
parameters and returns the :class:`~repro.sim.metrics.SimulationResult`.
The benchmark harness prints the same series the figures plot and
asserts the qualitative claims; see ``benchmarks/`` and EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np

from ..core.allocation import PeerwiseProportionalAllocator
from ..core.baselines import GlobalProportionalAllocator, IsolationAllocator
from .capacity import ConstantCapacity, StepCapacity
from .demand import (
    SECONDS_PER_HOUR,
    AlwaysOn,
    BernoulliDemand,
    NeverRequests,
    RandomHoursDemand,
    ScheduleDemand,
)
from .engine import Simulation
from .metrics import SimulationResult
from .peer import PeerConfig

__all__ = [
    "figure_5a",
    "figure_5b",
    "figure_6",
    "figure_7",
    "figure_8a",
    "figure_8b",
    "bernoulli_network",
    "churn_configs",
    "churn_network",
    "faulty_network",
    "million_peer_smoke",
    "repair_under_churn",
    "sparse_population",
    "sparse_population_churn",
    "sparse_population_sim",
    "FIG5A_CAPACITIES",
    "FIG5B_CAPACITIES",
    "FIG6_CAPACITIES",
]

#: Fig. 5(a): "ten users ... upload capacities ranging from 100kbps to 1000kbps".
FIG5A_CAPACITIES = tuple(float(c) for c in range(100, 1001, 100))

#: Fig. 5(b): "three peer network ... one peer's upload bandwidth dominates".
FIG5B_CAPACITIES = (128.0, 256.0, 1024.0)

#: Figs. 6-7: "mu0 = 256kbps, mu1 = 512kbps, mu2 = 1024kbps".
FIG6_CAPACITIES = (256.0, 512.0, 1024.0)


def figure_5a(
    slots: int = 3500, seed: int = 0, engine: str = "auto"
) -> SimulationResult:
    """Ten saturated users; rates converge to own upload capacities."""
    configs = [
        PeerConfig(capacity=c, demand=AlwaysOn(), label=f"U/L {int(c)} kbps")
        for c in FIG5A_CAPACITIES
    ]
    return Simulation(configs, seed=seed, engine=engine).run(slots)


def figure_5b(
    slots: int = 3500, seed: int = 0, engine: str = "auto"
) -> SimulationResult:
    """Three peers with one dominating contributor (128/256/1024 kbps).

    Demonstrates fairness *without* the non-dominant condition of [16]:
    1024 > 128 + 256, yet rates still converge to contributions.
    """
    configs = [
        PeerConfig(capacity=c, demand=AlwaysOn(), label=f"U/L {int(c)} kbps")
        for c in FIG5B_CAPACITIES
    ]
    return Simulation(configs, seed=seed, engine=engine).run(slots)


def _day_scenario(
    capacities,
    seed: int,
    slot_seconds: float,
    capacity_overrides: dict[int, StepCapacity] | None = None,
    engine: str = "auto",
) -> Simulation:
    """Common 3-peer, 24-hour home-video-streaming setup of Figs. 6-7."""
    configs = []
    for i, c in enumerate(capacities):
        capacity = (capacity_overrides or {}).get(i, c)
        configs.append(
            PeerConfig(
                capacity=capacity,
                demand=RandomHoursDemand(
                    hours_per_day=12, seed=seed * 101 + i, slot_seconds=slot_seconds
                ),
                label=f"Peer {i}",
            )
        )
    return Simulation(configs, seed=seed, slot_seconds=slot_seconds, engine=engine)


def figure_6(
    seed: int = 0, slot_seconds: float = 10.0, engine: str = "auto"
) -> SimulationResult:
    """3 peers (256/512/1024 kbps) each streaming 12 random hours/day.

    Every peer contributes around the clock; the result's
    :meth:`~repro.sim.metrics.SimulationResult.gains_over_isolation`
    quantifies the shaded gain regions of the figure.  ``slot_seconds``
    coarsens the slotting (the paper uses 1 s; 10 s keeps the identical
    fixed point at a tenth of the compute — see engine docs).
    """
    slots = int(24 * SECONDS_PER_HOUR / slot_seconds)
    sim = _day_scenario(FIG6_CAPACITIES, seed, slot_seconds, engine=engine)
    return sim.run(slots)


def figure_7(
    seed: int = 0, slot_seconds: float = 10.0, engine: str = "auto"
) -> SimulationResult:
    """Fig. 6's scenario, but peer 1 contributes only after hour 3.

    Reproduces the freeride-window / penalty / penalty-decay sequence
    discussed in Section V-A.
    """
    slots = int(24 * SECONDS_PER_HOUR / slot_seconds)
    join_slot = int(3 * SECONDS_PER_HOUR / slot_seconds)
    overrides = {
        1: StepCapacity([(0, 0.0), (join_slot, FIG6_CAPACITIES[1])])
    }
    sim = _day_scenario(FIG6_CAPACITIES, seed, slot_seconds, overrides, engine=engine)
    return sim.run(slots)


def figure_8a(
    slots: int = 3500, n: int = 10, seed: int = 0, engine: str = "auto"
) -> SimulationResult:
    """Incentive to contribute while idle (Fig. 8(a)).

    * peers 2..n-1: contribute from t=0, download from t=0;
    * peer 0: contributes from t=0 but downloads only from t=1000;
    * peer 1: contributes *and* downloads from t=1000.

    Peer 0's banked credit buys it better service than peer 1 after
    t=1000.
    """
    kbps = 1024.0
    configs = [
        PeerConfig(
            capacity=kbps,
            demand=ScheduleDemand([(1000, slots)]),
            label="Peer 0 (early contributor)",
        ),
        PeerConfig(
            capacity=StepCapacity([(0, 0.0), (1000, kbps)]),
            demand=ScheduleDemand([(1000, slots)]),
            label="Peer 1 (late joiner)",
        ),
    ]
    configs += [
        PeerConfig(capacity=kbps, demand=AlwaysOn(), label=f"Peer {i}")
        for i in range(2, n)
    ]
    return Simulation(configs, seed=seed, engine=engine).run(slots)


def figure_8b(
    slots: int = 10000, n: int = 10, seed: int = 0, engine: str = "auto"
) -> SimulationResult:
    """Adaptation to capacity dynamics (Fig. 8(b)).

    Ten saturated peers at 1024 kbps; peer 0's upload drops to 512 kbps
    at t=1000 and recovers at t=3000.
    """
    kbps = 1024.0
    configs = [
        PeerConfig(
            capacity=StepCapacity([(0, kbps), (1000, kbps / 2), (3000, kbps)]),
            demand=AlwaysOn(),
            label="Peer 0 (drops)",
        )
    ]
    configs += [
        PeerConfig(capacity=kbps, demand=AlwaysOn(), label=f"Peer {i}")
        for i in range(1, n)
    ]
    return Simulation(configs, seed=seed, engine=engine).run(slots)


def churn_configs(
    n: int = 8,
    kbps: float = 512.0,
    gamma: float = 0.6,
    churners: int | None = None,
    slots: int = 20_000,
    mean_session: int = 1500,
    seed: int = 0,
) -> list[PeerConfig]:
    """Peer configs for the churn scenario (see :func:`churn_network`).

    Exposed separately so callers that need the live
    :class:`~repro.sim.engine.Simulation` (ledger inspection, fault
    overlays) can build it themselves.
    """
    if churners is None:
        churners = n // 2
    if not 0 <= churners <= n:
        raise ValueError(f"churners must be within [0, {n}], got {churners}")
    rng = np.random.default_rng(seed)
    configs = []
    for i in range(n):
        if i < churners:
            steps = []
            t, online = 0, bool(rng.integers(0, 2))
            while t < slots:
                steps.append((t, kbps if online else 0.0))
                t += int(rng.geometric(1.0 / mean_session))
                online = not online
            capacity: StepCapacity | float = StepCapacity(steps)
            label = f"Peer {i} (churning)"
        else:
            capacity = kbps
            label = f"Peer {i} (stable)"
        configs.append(
            PeerConfig(capacity=capacity, demand=BernoulliDemand(gamma), label=label)
        )
    return configs


def churn_network(
    n: int = 8,
    kbps: float = 512.0,
    gamma: float = 0.6,
    churners: int | None = None,
    slots: int = 20_000,
    mean_session: int = 1500,
    seed: int = 0,
    engine: str = "auto",
) -> SimulationResult:
    """A dynamic network where some peers repeatedly leave and rejoin.

    The paper's future work asks about "a dynamic real-time environment
    ... tradeoffs between fairness and quick adaptation".  Here the
    first ``churners`` peers alternate between online (full capacity)
    and offline (zero capacity) sessions of geometric length around
    ``mean_session`` slots; the rest are stable.  Departure while owing
    credit and rejoining with stale ledgers are exactly the dynamics the
    cumulative rule handles slowly — measured by the churn benchmarks.
    """
    configs = churn_configs(
        n=n,
        kbps=kbps,
        gamma=gamma,
        churners=churners,
        slots=slots,
        mean_session=mean_session,
        seed=seed,
    )
    return Simulation(configs, seed=seed, engine=engine).run(slots)


def faulty_network(
    plan=None,
    n: int = 6,
    kbps: float = 512.0,
    gamma: float = 0.6,
    slots: int = 5000,
    seed: int = 0,
    engine: str = "auto",
) -> SimulationResult:
    """Bandwidth sharing under a transfer-level :class:`FaultPlan`.

    Reuses the churn scenario's config builder (all peers stable) and
    overlays each faulty peer's capacity with the profile the plan
    derives: ``refuse`` never comes online, ``crash`` goes dark for
    good once its byte budget is spent, ``stall`` is a temporary
    outage.  ``pollute``/``corrupt`` peers keep full capacity — they
    still consume upload bandwidth; the goodput loss they cause is a
    transfer-layer effect (see ``bench_goodput_under_faults``).
    """
    from ..faults.plan import FaultPlan

    if plan is None:
        plan = FaultPlan(seed=seed)
    if plan.peers and max(plan.peers) >= n:
        raise ValueError(
            f"fault plan names peer {max(plan.peers)} but the network has {n} peers"
        )
    configs = churn_configs(
        n=n, kbps=kbps, gamma=gamma, churners=0, slots=slots, seed=seed
    )
    for peer in plan.peers:
        steps = plan.capacity_profile(peer, kbps, slots)
        if steps is not None:
            configs[peer].capacity = StepCapacity(steps)
        kinds = ",".join(f.kind for f in plan.faults_for(peer))
        configs[peer].label = f"Peer {peer} (faulty: {kinds})"
    return Simulation(configs, seed=seed, engine=engine).run(slots)


def _decode_probability(net, handle, live, further: int) -> float:
    """Fraction of ``further``-peer failure combinations that still decode.

    For every way ``further`` of the ``live`` peers could additionally
    fail, the remaining peers' stored coefficient rows (repair ids
    resolved through the registered records) are rank-checked chunk by
    chunk; success means every chunk retains rank >= k.  Exhaustive and
    deterministic — no Monte Carlo — so scenario results are replayable.
    """
    from itertools import combinations

    from ..gf.linalg import IncrementalRank

    live = sorted(live)
    if further > len(live):
        return 0.0
    field = handle.encoder.field
    k = handle.params.k
    source = handle.coefficient_source()
    manifest = handle.manifest
    combos = list(combinations(live, further))
    wins = 0
    for dead in combos:
        remaining = [p for p in live if p not in dead]
        ok = True
        for index, chunk_id in enumerate(manifest.chunk_ids):
            generator = source.coefficient_generator(
                index, manifest.chunk_versions[index]
            )
            rank = IncrementalRank(field, k)
            for p in remaining:
                if not net.stores[p].has_file(chunk_id):
                    continue
                for message in net.stores[p].messages(chunk_id):
                    rank.offer(generator.row(message.message_id))
                    if rank.rank >= k:
                        break
                if rank.rank >= k:
                    break
            if rank.rank < k:
                ok = False
                break
        if ok:
            wins += 1
    return wins / len(combos)


def repair_under_churn(
    n: int = 8,
    kill: int = 3,
    further_failures: int = 2,
    seed: int = 0,
    message_limit: int = 2,
    repair: bool = True,
    plan=None,
) -> dict:
    """Survivor-only repair after churn kills a chunk of the redundancy.

    Publishes one file across ``n`` peers with ``message_limit`` coded
    messages each (the space-saving mode, so redundancy is scarce), then
    a seeded churn event wipes ``kill`` peers' caches — well over the
    30% loss the robustness story targets with the defaults (3 of 8
    peers = 37.5% of the coded messages).  Survivors then recombine
    their stored messages into fresh ones (:mod:`repro.repair`) with the
    owner contributing *digests only* — zero payload bytes.

    The metric is the exhaustive decode probability under
    ``further_failures`` additional peer losses, reported before churn
    (``prob_pre``), after churn (``prob_churn``) and after repair
    (``prob_repaired``); a successful repair restores ``prob_repaired``
    to at least ``prob_pre``.  ``repair=False`` runs the no-repair
    baseline (``prob_repaired`` then just re-measures the churned
    state).

    A :class:`~repro.faults.plan.FaultPlan` may drive the cast instead
    of ``kill``/``seed``: peers with a ``depart`` fault are wiped and
    stay gone; peers with a ``rejoin`` fault come back cache-empty and
    become the repair targets.
    """
    import math as _math

    from .network import DEFAULT_SIM_PARAMS, FileSharingNetwork

    if plan is not None:
        seed = plan.seed
        rejoined = sorted(
            p
            for p in plan.peers
            if any(f.kind == "rejoin" for f in plan.faults_for(p))
        )
        killed = sorted(
            p
            for p in plan.peers
            if p not in rejoined
            and any(f.kind in ("depart", "crash", "churn") for f in plan.faults_for(p))
        )
    else:
        rejoined = []
        rng = np.random.default_rng(seed)
        killed = sorted(int(p) for p in rng.choice(n, size=kill, replace=False))
    if any(not 0 <= p < n for p in killed + rejoined):
        raise ValueError(f"churn cast {killed + rejoined} exceeds peers 0..{n - 1}")
    if len(killed) >= n:
        raise ValueError("churn cannot kill every peer")

    net = FileSharingNetwork([512.0] * n, seed=seed)
    params = DEFAULT_SIM_PARAMS
    rng_data = np.random.default_rng(seed * 7919 + 1)
    data = rng_data.integers(0, 256, size=params.file_bytes, dtype=np.uint8).tobytes()
    handle = net.publish(0, "churned-file", data, message_limit=message_limit)
    chunk_ids = handle.manifest.chunk_ids

    everyone = list(range(n))
    prob_pre = _decode_probability(net, handle, everyone, further_failures)
    total_messages = sum(net.stores[p].count(c) for p in everyone for c in chunk_ids)
    dropped = sum(net.stores[p].count(c) for p in killed + rejoined for c in chunk_ids)
    for p in killed + rejoined:
        net.drop_peer_data(p, "churned-file")
    live = [p for p in everyone if p not in killed]
    prob_churn = _decode_probability(net, handle, live, further_failures)

    produced = degraded = digest_bytes = helper_bandwidth = 0
    if repair:
        # Enough fresh messages that any (live - further) survivors can
        # still decode: top every target up to ceil(k / worst-case
        # survivor count) messages per chunk.
        targets = rejoined if rejoined else live
        per_peer = _math.ceil(
            handle.params.k / max(1, len(live) - further_failures)
        )
        for target in targets:
            deficit = max(
                per_peer - net.stores[target].count(c) for c in chunk_ids
            )
            if deficit <= 0:
                continue
            result = net.churn_repair(
                "churned-file",
                target,
                helpers=[p for p in live if p != target],
                count=deficit,
            )
            produced += result["produced"]
            degraded += result["degraded_chunks"]
            digest_bytes += result["owner_digest_bytes"]
            helper_bandwidth += result["helper_bandwidth_bytes"]
    prob_repaired = _decode_probability(net, handle, live, further_failures)

    return {
        "seed": seed,
        "n": n,
        "k": handle.params.k,
        "message_limit": message_limit,
        "killed": killed,
        "rejoined": rejoined,
        "further_failures": further_failures,
        "repair": repair,
        "dropped_message_fraction": dropped / total_messages,
        "prob_pre": prob_pre,
        "prob_churn": prob_churn,
        "prob_repaired": prob_repaired,
        "produced": produced,
        "degraded_chunks": degraded,
        "owner_payload_bytes": 0,
        "owner_digest_bytes": digest_bytes,
        "helper_bandwidth_bytes": helper_bandwidth,
        "plan": plan.to_spec() if plan is not None else None,
    }


def _cohort_population(n, giver_configs, cohorts, slots, **sim_args) -> Simulation:
    """``giver_configs``, then pure consumers up to ``n`` peers in all.

    Consumers rotate through ``cohorts`` request cohorts over ``slots``
    slots; one idle capacity and one demand schedule per cohort are
    shared instances (the shard kernel groups by object identity).
    """
    if cohorts < 1:
        raise ValueError(f"cohorts must be positive, got {cohorts}")
    if slots < 1:
        raise ValueError(f"slots must be positive, got {slots}")
    idle_cap = ConstantCapacity(0.0)
    cohort_demand = [
        ScheduleDemand([(t, t + 1) for t in range(c, slots, cohorts)])
        for c in range(cohorts)
    ]
    consumers = [
        PeerConfig(capacity=idle_cap, demand=cohort_demand[i % cohorts])
        for i in range(n - len(giver_configs))
    ]
    return Simulation(giver_configs + consumers, **sim_args)


def sparse_population_sim(
    n: int = 100_000,
    cohorts: int = 64,
    givers: int = 16,
    slots: int = 128,
    kbps: float = 1024.0,
    seed: int = 0,
    engine: str = "auto",
    workers: int | None = None,
) -> Simulation:
    """Cohort-structured population for the 10^5-10^6-peer scale runs.

    ``givers`` dedicated contributors upload at ``kbps`` and never
    request; everyone else is a pure consumer whose requests rotate
    round-robin through ``cohorts`` cohorts (cohort ``c`` requests in
    slots ``t = c mod cohorts``), so only about ``(n - givers) /
    cohorts`` users are active in any one slot.  Capacity profiles and
    demand processes are **shared instances** per cohort: the shard
    kernel puts a cohort's consumers in one sampling class (the givers
    are one more), so a time block is drawn and stored for
    ``cohorts + 1`` classes, not n peers; a slot's request and capacity
    vectors are one gather each through the peer-to-class index, and
    the credit ledgers only ever materialise ``givers`` explicit
    entries per consumer row.  This is the population shape the sparse engine is
    built for — per-slot work scales with the *active* set, not ``n``.

    Returns the live :class:`~repro.sim.engine.Simulation` so callers
    (benchmarks, the million-peer smoke) can inspect
    :meth:`~repro.sim.engine.Simulation.memory_bytes` and step it
    themselves.  ``workers`` goes with ``engine="procs"`` only, here and
    in the other ``sparse_population*`` builders (``auto`` never shards
    over processes, so it takes none).
    """
    if n < 2:
        raise ValueError(f"a sparse population needs >= 2 peers, got {n}")
    if not 1 <= givers < n:
        raise ValueError(f"givers must be within [1, {n - 1}], got {givers}")
    giver_cap = ConstantCapacity(kbps)
    never = NeverRequests()
    configs = [
        PeerConfig(capacity=giver_cap, demand=never, label=f"Giver {i}")
        for i in range(givers)
    ]
    return _cohort_population(
        n, configs, cohorts, slots, seed=seed, engine=engine, workers=workers
    )


def sparse_population(
    n: int = 100_000,
    cohorts: int = 64,
    givers: int = 16,
    slots: int = 128,
    kbps: float = 1024.0,
    seed: int = 0,
    engine: str = "auto",
    workers: int | None = None,
    history: str | None = "none",
) -> SimulationResult:
    """Run :func:`sparse_population_sim` for ``slots`` slots.

    Defaults to ``history="none"`` (aggregate-only summary) because a
    full ``(T, n)`` history at these population sizes would dwarf the
    engine state the scenario exists to keep small.
    """
    sim = sparse_population_sim(
        n=n,
        cohorts=cohorts,
        givers=givers,
        slots=slots,
        kbps=kbps,
        seed=seed,
        engine=engine,
        workers=workers,
    )
    with sim:
        return sim.run(slots, history=history)


def sparse_population_churn(
    n: int = 100_000,
    cohorts: int = 64,
    givers_per_phase: int = 16,
    phases: int = 4,
    phase_slots: int = 32,
    kbps: float = 1024.0,
    seed: int = 0,
    engine: str = "auto",
    workers: int | None = None,
) -> Simulation:
    """Giver churn at scale: contributor generations that join and leave.

    ``phases`` successive generations of ``givers_per_phase`` dedicated
    contributors each upload only during their own ``phase_slots``-slot
    phase (a :class:`~repro.sim.capacity.StepCapacity` window) and are
    silent forever after — departed peers.  Consumers rotate through
    ``cohorts`` exactly as in :func:`sparse_population_sim`, so every
    generation writes a fresh set of explicit ledger entries into each
    consumer row it serves and then never touches them again.

    Those dead entries stay: Equation (2)'s ledger is cumulative, so a
    consumer row ends with up to ``phases * givers_per_phase`` explicit
    entries, the bound the churn benchmark asserts.  Nothing here
    expires an entry by age: a row goes stale between its own
    requests, and a peer that forgot who helped it would pay free
    riders.  Dropping a departed giver's column when it *leaves* would
    bound the store by the live giver set; that needs a departure
    event the engines do not have yet.
    """
    if n < 2:
        raise ValueError(f"a sparse population needs >= 2 peers, got {n}")
    if phases < 1 or givers_per_phase < 1:
        raise ValueError(
            f"need >= 1 phase of >= 1 giver, got {phases} x {givers_per_phase}"
        )
    if phase_slots < 1:
        raise ValueError(f"phase_slots must be positive, got {phase_slots}")
    total_givers = phases * givers_per_phase
    if total_givers >= n:
        raise ValueError(
            f"{total_givers} givers leave no consumers in a {n}-peer network"
        )
    never = NeverRequests()
    # StepCapacity yields 0.0 before its first step, so generation g
    # simply steps up at its phase start and back down at its phase end.
    phase_caps = [
        StepCapacity([(g * phase_slots, kbps), ((g + 1) * phase_slots, 0.0)])
        for g in range(phases)
    ]
    configs = [
        PeerConfig(
            capacity=phase_caps[i // givers_per_phase],
            demand=never,
            label=f"Giver {i} (gen {i // givers_per_phase})",
        )
        for i in range(total_givers)
    ]
    return _cohort_population(
        n, configs, cohorts, phases * phase_slots,
        seed=seed, engine=engine, workers=workers,
    )


def million_peer_smoke(
    n: int = 1_000_000,
    slots: int = 4,
    cohorts: int = 4096,
    givers: int = 8,
    seed: int = 0,
    memory_cap_bytes: int = 2 << 30,
    engine: str = "sparse",
    workers: int | None = None,
) -> dict:
    """Million-peer smoke: build, step and account a 10^6-peer network.

    Uses the sparse engine (what ``auto`` picks at this size) with
    ``history="none"``; pass ``engine="procs"`` (and optionally
    ``workers``) to smoke the process-sharded engine instead.  The
    return dict reports the engine's own state accounting
    (:meth:`~repro.sim.engine.Simulation.memory_bytes`, bytes/peer) and
    the peak RSS — parent plus, under procs, the reaped worker
    children — against ``memory_cap_bytes`` — the documented cap in
    EXPERIMENTS.md.  ``within_cap`` is the smoke verdict.
    """
    import resource

    sim = sparse_population_sim(
        n=n,
        cohorts=cohorts,
        givers=givers,
        slots=slots,
        seed=seed,
        engine=engine,
        workers=workers,
    )
    with sim:
        result = sim.run(slots, history="none")
        state_bytes = sim.memory_bytes()
        backend = sim.backend
        sim_workers = sim._workers
    # ru_maxrss is KiB on Linux; the whole-process peak, so it bounds
    # (conservatively) what the scenario itself needed.  Workers are
    # reaped by the `with` close above, so RUSAGE_CHILDREN covers the
    # procs engine's shards (max over children, not a sum).
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    return {
        "n": n,
        "slots": slots,
        "cohorts": cohorts,
        "givers": givers,
        "seed": seed,
        "backend": backend,
        "workers": int(sim_workers),
        "state_bytes": int(state_bytes),
        "bytes_per_peer": state_bytes / n,
        "peak_rss_bytes": int(max(peak_rss, child_rss)),
        "memory_cap_bytes": int(memory_cap_bytes),
        "within_cap": bool(max(peak_rss, child_rss) <= memory_cap_bytes),
        "rate_sum_total": float(result.summary["rate_sum"].sum()),
        "request_slots": int(result.summary["request_count"].sum()),
        "capacity_sum_total": float(result.summary["capacity_sum"].sum()),
    }


def bernoulli_network(
    capacities,
    gammas,
    slots: int = 5000,
    seed: int = 0,
    allocators=None,
    declared=None,
    forgetting: float = 1.0,
    baseline: str | None = None,
    engine: str = "auto",
) -> SimulationResult:
    """General Section IV-style network: Bernoulli demands, any strategies.

    ``allocators`` maps peer index to an :class:`~repro.core.Allocator`
    (default honest Equation (2) everywhere); ``baseline="global"`` or
    ``"isolation"`` switches *all* unspecified peers to that rule;
    ``declared`` maps peer index to a lied-about capacity.
    """
    capacities = [float(c) for c in capacities]
    gammas = [float(g) for g in gammas]
    if len(capacities) != len(gammas):
        raise ValueError("capacities and gammas must align")
    default_cls = {
        None: PeerwiseProportionalAllocator,
        "global": GlobalProportionalAllocator,
        "isolation": IsolationAllocator,
    }[baseline]
    configs = []
    for i, (c, g) in enumerate(zip(capacities, gammas)):
        allocator = (allocators or {}).get(i) or default_cls()
        configs.append(
            PeerConfig(
                capacity=c,
                demand=BernoulliDemand(g),
                allocator=allocator,
                declared_capacity=(declared or {}).get(i),
                forgetting=forgetting,
            )
        )
    return Simulation(configs, seed=seed, engine=engine).run(slots)
