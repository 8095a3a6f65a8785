"""The discrete-time simulation engine (Section V's simulator).

Each slot the engine: samples every user's request indicator, asks every
peer's allocator for its proposed upload division, enforces physical
feasibility, credits every receiving peer's ledger, and records rates.
"Each peer reallocated their upload bandwidths once per second" — one
slot is one reallocation round; ``slot_seconds`` only scales ledger
accumulation so coarser slots can be used for day-long scenarios without
changing the fixed-point of Equation (2).

Three slot implementations produce those slots:

* ``reference`` — the original per-peer loop: one ``allocate()`` and one
  ``enforce_feasibility()`` call per peer per slot.  Simple, obviously
  correct, O(n) Python round-trips per slot; the oracle every other
  path is tested against.
* ``batched`` — peers are partitioned at construction into a *fast set*
  (allocator classes implementing the
  :class:`~repro.core.allocation.BatchedAllocator` protocol, grouped by
  class) and a *slow set* (stateful/custom/adversarial strategies, which
  keep the per-peer path unchanged).  Fast groups compute whole blocks
  of the n x n allocation matrix in one shot — through the runtime-
  compiled kernels of :mod:`repro.sim.fastpath` when available, else
  pure-numpy matrix expressions — demand and capacity are pre-sampled in
  time blocks for processes that declare themselves ``blockable``, and
  ledger credit is a single (tiled) ``L += alloc.T * dt`` per flush.
  O(n^2) memory (the dense credit matrix) and O(n^2) compute per slot.
* the **shard kernel** (:class:`~repro.sim.shard.ShardKernel`) — the
  large-``n`` path.  Credit lives in
  :class:`~repro.sim.sparse.SparseLedgers` and each slot touches only
  the *active set* (the requesters ``R`` and the givers with positive
  capacity), read from per-class rows, so a slot costs O(classes +
  |R| + givers x |R|) with no per-peer term.  A kernel owns a
  contiguous peer range and runs a slot as three phases — sample,
  allocate, credit — which
  :meth:`Simulation._step_compact` drives in one of two ways:
  ``sparse`` is one kernel over ``[0, n)`` called **in-process**
  (:class:`~repro.sim.shard.LocalShard`); ``procs`` is W kernels in
  forked worker **processes** that exchange pipe messages
  (:mod:`repro.sim.procs`).  The in-process kernel is already
  pthread-sharded natively and has measured faster on every input, so
  ``procs`` runs only when asked for by name.

``engine="auto"`` is a two-way rule over what the code can observe (see
:meth:`Simulation._auto_engine`): ``batched`` while ``n`` is below the
sparse threshold and the dense engines' three ``(n, n)`` arrays fit four
times into available memory, ``sparse`` otherwise.  Every construction
emits a ``sim.engine_selected`` trace event recording the engine, the
rule that chose it (``"requested"`` for an explicit engine) and the
worker-process count (0 for the in-process engines).

The engines are **bit-identical**: every batched/sparse expression was
chosen to perform the same IEEE-754 operations in the same order as the
reference loop (same pairwise reductions over the same element
positions, multiply-by-1.0 no-ops for untouched rows, block RNG draws
that consume the per-peer streams exactly like scalar draws; zeros
outside the active set are exact no-ops in every reduction the engines
perform).  ``tests/sim/test_engine_batched.py``,
``tests/sim/test_engine_sparse.py``, ``tests/sim/test_engine_procs.py``
and ``tests/sim/test_shard_kernel.py`` enforce this equivalence
property-style across honest and adversarial mixes, delayed feedback,
forgetting, time-varying capacity and any contiguous shard split.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from ..core.allocation import (
    Allocator,
    PeerwiseProportionalAllocator,
    enforce_feasibility,
    enforce_feasibility_rows,
)
from ..core.baselines import GlobalProportionalAllocator
from ..core.fairness import jain_index
from ..core.ledger import DEFAULT_INITIAL_CREDIT
from ..obs import REGISTRY as _OBS
from ..obs import TRACER as _TRACER
from ..obs import spans as _spans
from ..obs.events import SIM_ENGINE_SELECTED, SIM_FEEDBACK, SIM_SLOT
from . import fastpath
from .metrics import SimulationResult, StreamingMetrics
from .peer import PeerConfig, PeerState
from .shard import FAST_ALLOCATORS, TIME_BLOCK, LocalShard, column_sums
from .sparse import sparse_pairwise

__all__ = ["Simulation"]

_SIM_SLOTS = _OBS.counter("repro.sim.slots", "simulation slots stepped")
_SIM_BATCHED_SLOTS = _OBS.counter(
    "repro.sim.slots.batched", "slots stepped through the batched fast path"
)
_SIM_SPARSE_SLOTS = _OBS.counter(
    "repro.sim.slots.sparse", "slots stepped through the sparse fast path"
)
_SIM_PROCS_SLOTS = _OBS.counter(
    "repro.sim.slots.procs", "slots stepped through the process-sharded engine"
)
_SIM_SAMPLE_NS = _OBS.histogram(
    "repro.sim.sample_ns", "nanoseconds per slot spent sampling demand and capacity"
)
_SIM_ALLOC_NS = _OBS.histogram(
    "repro.sim.alloc_ns", "nanoseconds per slot spent in allocation + feasibility"
)
_SIM_CREDIT_NS = _OBS.histogram(
    "repro.sim.credit_ns", "nanoseconds per slot spent crediting ledgers and folding rates"
)
_SIM_JAIN = _OBS.gauge(
    "repro.sim.jain_fairness",
    "Jain fairness index of requesting users' rates, latest slot",
)
_SIM_FAST_PEERS = _OBS.gauge(
    "repro.sim.fast_peers",
    "peers handled by the batched fast path in the current simulation",
)
_SIM_FEEDBACK_FLUSHES = _OBS.counter(
    "repro.sim.feedback.flushes", "batched ledger-credit (feedback) flushes"
)

#: Population size at which ``engine="auto"`` switches to ``sparse``.
_SPARSE_N_THRESHOLD = 16384


def _available_memory_bytes() -> int | None:
    """Best-effort available physical memory (None when undiscoverable)."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return None


class Simulation:
    """Time-slotted peer-to-peer bandwidth-sharing simulation.

    Parameters
    ----------
    configs:
        One :class:`~repro.sim.peer.PeerConfig` per peer.
    seed:
        Base seed; each peer's demand process gets an independent
        deterministic stream derived from it.
    initial_credit:
        The small positive ledger initialisation of Equation (2).
    slot_seconds:
        Wall-clock seconds one slot represents (see module docstring).
    feedback_interval:
        Slots between a user's reports of received bandwidth to its home
        peer; 1 (default) is the paper's instant-feedback regime.
    engine:
        ``"auto"`` (default) picks ``"batched"`` or ``"sparse"`` from
        the population size and available memory, never anything else;
        ``"reference"`` forces the original per-peer loop for A/B
        debugging; ``"procs"`` runs the sparse kernel sharded over
        forked worker processes and is only ever chosen by name.
        Results are bit-identical whichever engine runs: every engine
        keeps Equation (2)'s cumulative ledger, with no entry expiry, so
        the sparse store holds one entry per partner a peer has ever
        received from.  The batched and shard-kernel engines bind each
        peer's allocator/demand/capacity strategy at construction; swap
        strategies mid-run only under ``reference``.
    workers:
        Worker processes, only with ``engine="procs"`` (default and cap:
        :func:`repro.sim.procs.worker_count`).
    """

    def __init__(
        self,
        configs: Sequence[PeerConfig],
        seed: int = 0,
        initial_credit: float = DEFAULT_INITIAL_CREDIT,
        slot_seconds: float = 1.0,
        feedback_interval: int = 1,
        engine: str = "auto",
        workers: int | None = None,
    ):
        if not configs:
            raise ValueError("a simulation needs at least one peer")
        if slot_seconds <= 0:
            raise ValueError(f"slot_seconds must be positive, got {slot_seconds}")
        if feedback_interval < 1:
            raise ValueError(
                f"feedback_interval must be >= 1 slot, got {feedback_interval}"
            )
        if engine not in ("auto", "reference", "batched", "sparse", "procs"):
            raise ValueError(
                "engine must be 'auto', 'reference', 'batched', 'sparse' or "
                f"'procs', got {engine!r}"
            )
        if workers is not None:
            if workers < 1:
                raise ValueError(f"workers must be >= 1, got {workers}")
            if engine != "procs":
                raise ValueError(
                    f"workers only applies to engine='procs' (got {engine!r})"
                )
        self.configs = list(configs)
        self.n = len(self.configs)
        self.slot_seconds = float(slot_seconds)
        #: How often users report received bandwidth to their home peer.
        #: The paper's user "contacts its corresponding peer periodically
        #: with informational updates ... this step can be done off-line";
        #: an interval of 1 is the idealised instant-feedback regime the
        #: paper simulates, larger values model batched off-line updates
        #: (one FeedbackUpdate every ``feedback_interval`` slots).
        self.feedback_interval = int(feedback_interval)
        self.engine = engine
        if engine == "auto":
            mode, reason = self._auto_engine(self.n)
        else:
            mode, reason = engine, "requested"
        self._mode = mode
        self._workers = 0
        if mode == "procs":
            # Imported here so the in-process engines never pay for
            # multiprocessing imports.
            from .procs import ProcsCoordinator, worker_count

            self._workers = worker_count(self.n, workers)
        _TRACER.emit(
            SIM_ENGINE_SELECTED,
            engine=mode,
            n=self.n,
            reason=reason,
            workers=self._workers,
        )
        self._t = 0
        self._kernels = None
        #: The shard kernel(s) behind ``sparse``/``procs`` — a
        #: :class:`LocalShard` or a ``ProcsCoordinator``; ``None`` for
        #: the dense engines.
        self._shards = None
        if mode in ("sparse", "procs"):
            self._credit_matrix = self._pending_feedback = None
            self._slow_rows = [
                i for i, cfg in enumerate(self.configs)
                if type(cfg.allocator) not in FAST_ALLOCATORS
            ]
            kernel_args = dict(
                seed=seed,
                initial_credit=initial_credit,
                feedback_interval=self.feedback_interval,
            )
            if mode == "procs":
                self._shards = ProcsCoordinator(
                    self.configs, workers=self._workers, **kernel_args
                )
                self.peers = None  # the ledgers live in the workers
                self._slot_counter = _SIM_PROCS_SLOTS
            else:
                self._shards = LocalShard(self.configs, **kernel_args)
                self._slot_counter = _SIM_SPARSE_SLOTS
            return
        # All ledgers live as rows of one shared matrix so Equation (2)
        # for the whole network is a masked matrix product; each peer's
        # ContributionLedger is a view into its row (same semantics).
        self._credit_matrix = np.zeros((self.n, self.n))  # repro: allow[sim-dense-alloc]
        self.peers = [
            PeerState(i, cfg, self.n, initial_credit, credit_buffer=self._credit_matrix[i])
            for i, cfg in enumerate(self.configs)
        ]
        self._pending_feedback = np.zeros((self.n, self.n))  # repro: allow[sim-dense-alloc]
        self._demand_rngs = [
            np.random.default_rng((seed, i)) for i in range(self.n)
        ]
        if mode == "batched":
            self._init_batched()

    @cached_property
    def peers(self) -> list[PeerState] | None:
        """One :class:`PeerState` per peer (``sim.peers[i].ledger``): a
        list under the in-process engines, ``None`` under ``procs``.
        Those assign it at construction; only ``sparse`` lands here, on
        first access — no run reads it, and building 10^5 ledger views
        was a third of that engine's set-up."""
        return self._shards.kernel.peer_states()

    @staticmethod
    def _auto_engine(n: int) -> tuple[str, str]:
        """``engine="auto"``: ``batched`` or ``sparse``, by size and memory.

        The dense engines carry three (n, n) float64 arrays (credit
        matrix, pending feedback, per-slot allocation); ``batched`` runs
        while ``n`` is below the sparse threshold and 4x those arrays is
        available, ``sparse`` otherwise.  The second element names the
        arm taken and is the ``sim.engine_selected`` event's ``reason``.
        """
        if n >= _SPARSE_N_THRESHOLD:
            return "sparse", f"n={n} >= sparse threshold {_SPARSE_N_THRESHOLD}"
        dense_bytes = 3 * 8 * n * n
        avail = _available_memory_bytes()
        if avail is not None and dense_bytes * 4 > avail:
            return (
                "sparse",
                f"dense state needs ~{dense_bytes} bytes x4, {avail} available",
            )
        return (
            "batched",
            f"n={n} < sparse threshold {_SPARSE_N_THRESHOLD}, dense state fits x4",
        )

    def _init_batched(self) -> None:
        """Partition peers into fast groups / slow set and bind plans."""
        self._kernels = fastpath.load()
        by_class: dict[type, list[int]] = {}
        slow: list[int] = []
        for i, peer in enumerate(self.peers):
            alloc = peer.config.allocator
            if callable(getattr(type(alloc), "allocate_rows", None)):
                by_class.setdefault(type(alloc), []).append(i)
            else:
                slow.append(i)
        self._slow_rows = slow
        # (representative instance, row indices, dispatch kind); batched
        # classes are class-stateless by protocol contract, so one
        # representative computes the whole group.
        self._groups: list[tuple[object, np.ndarray, str]] = []
        for cls, idxs in by_class.items():
            rows = np.asarray(idxs, dtype=np.int64)
            if self._kernels is not None and cls is PeerwiseProportionalAllocator:
                kind = "eq2"
            elif self._kernels is not None and cls is GlobalProportionalAllocator:
                kind = "eq3"
            else:
                kind = "proto"
            self._groups.append((self.peers[idxs[0]].config.allocator, rows, kind))
        # on_slot_end is a no-op unless overridden; pre-bind the hooks
        # that actually do something.
        self._slot_end_hooks = [
            p.config.allocator.on_slot_end
            for p in self.peers
            if type(p.config.allocator).on_slot_end is not Allocator.on_slot_end
        ]
        self._forgetting = np.array([p.config.forgetting for p in self.peers])
        self._any_forgetting = bool((self._forgetting < 1.0).any())
        overrides = [
            (i, float(p.config.declared_capacity))
            for i, p in enumerate(self.peers)
            if p.config.declared_capacity is not None
        ]
        self._declared_idx = np.array([i for i, _ in overrides], dtype=np.intp)
        self._declared_vals = np.array([v for _, v in overrides])
        self._block_demand = [
            i for i, p in enumerate(self.peers) if p.config.demand.blockable
        ]
        self._slot_demand = [
            i for i, p in enumerate(self.peers) if not p.config.demand.blockable
        ]
        self._block_capacity = [
            i for i, p in enumerate(self.peers) if p.config.capacity.blockable
        ]
        self._slot_capacity = [
            i for i, p in enumerate(self.peers) if not p.config.capacity.blockable
        ]
        self._block_start = -TIME_BLOCK  # force a build on first step
        self._req_block = np.empty((TIME_BLOCK, self.n), dtype=bool)
        self._cap_block = np.empty((TIME_BLOCK, self.n))

    @property
    def backend(self) -> str:
        """Which slot loop runs: ``reference``, ``batched`` / ``sparse``
        / ``procs`` (numpy) or ``batched+native`` / ``sparse+native`` /
        ``procs+native`` (compiled, multi-threaded for sparse)."""
        if self._mode == "reference":
            return "reference"
        if self._shards is not None:
            return f"{self._mode}+native" if self._shards.native else self._mode
        return "batched+native" if self._kernels is not None else "batched"

    @property
    def t(self) -> int:
        """Next slot to be simulated (continues across ``run`` calls)."""
        return self._t

    def credit_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` credit snapshot, whichever engine runs.

        The dense engines return their live matrix; the shard kernels
        materialise one (O(n^2) — inspection and tests, not hot loops).
        """
        if self._shards is not None:
            return self._shards.credit_matrix()
        return self._credit_matrix

    def shard_stats(self) -> list[dict]:
        """Per-shard accounting straight from the kernels: ``lo``,
        ``hi``, ``memory_bytes`` and ``entries`` — one entry under
        ``sparse``, one per worker under ``procs``, none for the dense
        engines."""
        if self._shards is None:
            return []
        return self._shards.shard_stats()

    def memory_bytes(self) -> int:
        """Resident bytes of engine-owned slot-loop state.

        Shard kernels: ledger store + class index + prefetch tables
        summed over :meth:`shard_stats` (the bytes-per-peer benchmark
        metric).  Dense: credit matrix + pending feedback + prefetch
        buffers.
        """
        if self._shards is not None:
            return sum(s["memory_bytes"] for s in self._shards.shard_stats())
        total = self._credit_matrix.nbytes + self._pending_feedback.nbytes
        if self._mode == "batched":
            total += self._req_block.nbytes + self._cap_block.nbytes
        return int(total)

    def step(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance one slot; returns ``(allocation_matrix, requesting, capacities)``.

        ``allocation_matrix[i, j]`` is ``mu_ij(t)`` after feasibility
        enforcement.  Under the sparse engines the dense matrix is
        materialised from the compact active-set rows — use
        :meth:`run` with ``history="rates"`` / ``"none"`` to keep large
        populations allocation-free.
        """
        return self._in_step_span(self._step_dense)

    def _in_step_span(self, step):
        if _TRACER.enabled:
            # Per-slot causal span (children: this slot's trace events);
            # tracing-off stays the bare call below.
            with _spans.span_scope("sim.step", t=self._t):
                return step()
        return step()

    def _step_dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._shards is not None:
            act, R, M, _, (requesting, capacities) = self._step_compact(dense=True)
            alloc = np.zeros((self.n, self.n))  # repro: allow[sim-dense-alloc]
            if act.size and R.size:
                alloc[np.ix_(act, R)] = M
            return alloc, requesting, capacities
        if self._mode == "batched":
            return self._step_batched()
        return self._step_reference()

    def _step_reference(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = self._t
        requesting = np.fromiter(
            (
                peer.config.demand.sample(t, rng)
                for peer, rng in zip(self.peers, self._demand_rngs)
            ),
            dtype=bool,
            count=self.n,
        )
        capacities = np.fromiter(
            (peer.capacity_at(t) for peer in self.peers), dtype=float, count=self.n
        )
        declared = np.fromiter(
            (peer.declared_at(t) for peer in self.peers), dtype=float, count=self.n
        )
        alloc_start = time.perf_counter_ns() if _OBS.enabled else None
        alloc = np.zeros((self.n, self.n))  # repro: allow[sim-dense-alloc]
        for i, peer in enumerate(self.peers):
            proposal = peer.config.allocator.allocate(
                i, capacities[i], requesting, peer.ledger, declared, t
            )
            alloc[i] = enforce_feasibility(proposal, capacities[i], requesting)
        if alloc_start is not None:
            _SIM_ALLOC_NS.observe(time.perf_counter_ns() - alloc_start)
        # Credit every receiving peer's local ledger.  Credits accumulate
        # bandwidth x time, so coarser slots weigh proportionally more.
        # With delayed feedback, each user's measurements buffer locally
        # and reach its home peer as a batch every feedback_interval
        # slots (the paper's periodic informational update).
        weight = self.slot_seconds
        self._pending_feedback += alloc.T * weight  # row j = user j's view
        if (t + 1) % self.feedback_interval == 0:
            credited = float(self._pending_feedback.sum())
            for j, peer in enumerate(self.peers):
                peer.ledger.record_received(self._pending_feedback[j])
            self._pending_feedback[:] = 0.0
            if _OBS.enabled:
                _SIM_FEEDBACK_FLUSHES.inc()
            _TRACER.emit(SIM_FEEDBACK, t=t, credited=credited)
        for peer in self.peers:
            peer.config.allocator.on_slot_end(t)
        self._emit_slot(alloc, requesting)
        self._t += 1
        return alloc, requesting, capacities

    def _refresh_blocks(self, t: int) -> None:
        """Pre-sample the next time block for blockable demand/capacity."""
        self._block_start = t
        peers, rngs = self.peers, self._demand_rngs
        for i in self._block_demand:
            self._req_block[:, i] = peers[i].config.demand.sample_block(
                t, TIME_BLOCK, rngs[i]
            )
        for i in self._block_capacity:
            self._cap_block[:, i] = peers[i].config.capacity.values(t, TIME_BLOCK)

    def _step_batched(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = self._t
        n = self.n
        sample_start = time.perf_counter_ns() if _OBS.enabled else None
        if not self._block_start <= t < self._block_start + TIME_BLOCK:
            self._refresh_blocks(t)
        off = t - self._block_start
        req_row = self._req_block[off]
        cap_row = self._cap_block[off]
        for i in self._slot_demand:
            req_row[i] = self.peers[i].config.demand.sample(t, self._demand_rngs[i])
        for i in self._slot_capacity:
            cap_row[i] = self.peers[i].capacity_at(t)
        requesting = req_row.copy()
        capacities = cap_row.copy()
        declared = capacities.copy()
        if self._declared_idx.size:
            declared[self._declared_idx] = self._declared_vals
        req_u8 = requesting.view(np.uint8)

        alloc_start = time.perf_counter_ns() if _OBS.enabled else None
        if sample_start is not None:
            _SIM_SAMPLE_NS.observe(alloc_start - sample_start)
        alloc = np.empty((n, n))  # repro: allow[sim-dense-alloc]
        ledgers = self._credit_matrix
        for rep, rows, kind in self._groups:
            caps_group = capacities[rows]
            if kind == "eq2":
                self._kernels.alloc_rows_eq2(
                    ledgers, req_u8, caps_group, rows, alloc
                )
            elif kind == "eq3":
                weights = np.where(requesting, declared, 0.0)
                self._kernels.alloc_rows_shared(
                    weights, weights.sum(), req_u8, caps_group, rows, alloc
                )
            else:
                rows_ledger = ledgers if rows.size == n else ledgers[rows]
                proposals = rep.allocate_rows(
                    rows, caps_group, requesting, rows_ledger, declared, t
                )
                alloc[rows] = enforce_feasibility_rows(
                    proposals, caps_group, requesting
                )
        for i in self._slow_rows:
            peer = self.peers[i]
            proposal = peer.config.allocator.allocate(
                i, capacities[i], requesting, peer.ledger, declared, t
            )
            alloc[i] = enforce_feasibility(proposal, capacities[i], requesting)
        credit_start = None
        if alloc_start is not None:
            credit_start = time.perf_counter_ns()
            _SIM_ALLOC_NS.observe(credit_start - alloc_start)

        weight = self.slot_seconds
        if self.feedback_interval == 1:
            # Instant feedback: skip materialising the pending buffer
            # and fold alloc.T * dt straight into the credit matrix
            # (same multiply-then-add rounding as the reference).
            if _TRACER.enabled:
                pending = alloc.T * weight
                credited = float(pending.sum())
                self._apply_forgetting()
                self._credit_matrix += pending
                _TRACER.emit(SIM_FEEDBACK, t=t, credited=credited)
            else:
                self._apply_forgetting()
                self._tadd(self._credit_matrix, alloc, weight)
            if _OBS.enabled:
                _SIM_FEEDBACK_FLUSHES.inc()
        else:
            self._tadd(self._pending_feedback, alloc, weight)
            if (t + 1) % self.feedback_interval == 0:
                if _TRACER.enabled:
                    _TRACER.emit(
                        SIM_FEEDBACK,
                        t=t,
                        credited=float(self._pending_feedback.sum()),
                    )
                self._apply_forgetting()
                self._credit_matrix += self._pending_feedback
                self._pending_feedback[:] = 0.0
                if _OBS.enabled:
                    _SIM_FEEDBACK_FLUSHES.inc()
        for hook in self._slot_end_hooks:
            hook(t)
        if credit_start is not None:
            _SIM_CREDIT_NS.observe(time.perf_counter_ns() - credit_start)
        if _OBS.enabled:
            _SIM_BATCHED_SLOTS.inc()
            _SIM_FAST_PEERS.set(n - len(self._slow_rows))
        self._emit_slot(alloc, requesting)
        self._t += 1
        return alloc, requesting, capacities

    # -- shard-kernel engines (sparse, procs) --------------------------

    def _step_compact(self, dense: bool = False) -> tuple:
        """One slot over the active set, through the shard kernel(s).

        The shards sample, allocate and credit; this side owns what
        spans them: the compact rates
        (:func:`~repro.sim.shard.column_sums`, once over the whole
        ``M`` so every consumer sees identical bits) and the trace
        totals.  Returns ``(act, R, M, rates, vectors)``: ``R`` (sorted)
        the requesters as the shards sampled them, ``act`` (sorted) the
        givers with nonzero rows this slot, ``M[r, a]`` the allocation
        from ``act[r]`` to ``R[a]`` — the nonzero block of the dense
        allocation matrix — and ``rates`` its column sums.  ``vectors``
        is the dense ``(requesting, capacities)`` pair when ``dense``
        asks for it (built from the shards' class rows), else ``None``.
        """
        t = self._t
        shards = self._shards
        timed = _OBS.enabled
        start = time.perf_counter_ns() if timed else 0
        R = shards.sample(t)
        vectors = shards.vectors() if dense else None
        if timed:
            alloc_start = time.perf_counter_ns()
            _SIM_SAMPLE_NS.observe(alloc_start - start)
        act, M = shards.alloc(t, R)
        if timed:
            credit_start = time.perf_counter_ns()
            _SIM_ALLOC_NS.observe(credit_start - alloc_start)
        rates = column_sums(M)
        weight = self.slot_seconds
        instant = self.feedback_interval == 1
        flush = (t + 1) % self.feedback_interval == 0
        credited = None
        if _TRACER.enabled and instant:
            credited = self._sparse_flat_total(R, act, M, weight, transpose=True)
        pending = shards.credit(
            t, act, R, M, rates, weight, flush, _TRACER.enabled and not instant
        )
        if timed:
            _SIM_CREDIT_NS.observe(time.perf_counter_ns() - credit_start)
        if flush:
            if _TRACER.enabled:
                if credited is None:
                    credited = self._pending_total(pending)
                _TRACER.emit(SIM_FEEDBACK, t=t, credited=credited)
            if _OBS.enabled:
                _SIM_FEEDBACK_FLUSHES.inc()
        if _OBS.enabled:
            self._slot_counter.inc()
            _SIM_FAST_PEERS.set(self.n - len(self._slow_rows))
        self._emit_slot_sparse(act, R, M, rates)
        self._t += 1
        return act, R, M, rates, vectors

    def _pending_total(self, dumps) -> float:
        """``float(pending.sum())`` of the dense deferred-feedback
        buffer, replayed from the shards' pending dumps (``(receiver,
        giver_idx, values)`` triples in global row order — contiguous
        shards make the shard-order concatenation globally sorted)."""
        if not dumps:
            return 0.0
        n = self.n
        pos = np.concatenate([idx + j * n for j, idx, _ in dumps])
        val = np.concatenate([v for _, _, v in dumps])
        return float(sparse_pairwise(pos, val, n * n))

    def _sparse_flat_total(
        self, R: np.ndarray, act: np.ndarray, M: np.ndarray, weight: float,
        transpose: bool,
    ) -> float:
        """Dense ``float(X.sum())`` where ``X`` is ``alloc`` (or
        ``alloc.T * weight``) — the flat n*n pairwise reduction replayed
        over the nonzero block only."""
        n = self.n
        if not act.size or not R.size:
            return 0.0
        if transpose:
            pos = (R[:, None] * n + act[None, :]).ravel()
            val = np.ascontiguousarray(M.T * weight).ravel()
        else:
            pos = (act[:, None] * n + R[None, :]).ravel()
            val = np.ascontiguousarray(M).ravel()
        return float(sparse_pairwise(pos, val, n * n))

    def _emit_slot_sparse(
        self, act: np.ndarray, R: np.ndarray, M: np.ndarray, rates: np.ndarray
    ) -> None:
        if _OBS.enabled or _TRACER.enabled:
            jain = jain_index(rates) if R.size else 1.0
            if _OBS.enabled:
                _SIM_SLOTS.inc()
                _SIM_JAIN.set(jain)
            if _TRACER.enabled:
                _TRACER.emit(
                    SIM_SLOT,
                    t=self._t,
                    requesting=int(R.size),
                    allocated_kbps=self._sparse_flat_total(
                        R, act, M, 1.0, transpose=False
                    ),
                    jain=jain,
                )

    def _apply_forgetting(self) -> None:
        if self._any_forgetting:
            # Rows with forgetting == 1.0 multiply by exactly 1.0 — a
            # bitwise no-op, matching the reference's skipped decay.
            self._credit_matrix *= self._forgetting[:, None]

    def _tadd(self, target: np.ndarray, alloc: np.ndarray, weight: float) -> None:
        """``target += alloc.T * weight`` (the ledger-credit transpose)."""
        if self._kernels is not None:
            self._kernels.ledger_tadd(target, alloc, weight)
        else:
            # Strip-tiled so the transposed read stays cache-resident;
            # element-wise it is the identical multiply-then-add.
            for s in range(0, self.n, 128):
                e = min(s + 128, self.n)
                target[:, s:e] += alloc[s:e].T * weight

    def _emit_slot(self, alloc: np.ndarray, requesting: np.ndarray) -> None:
        if _OBS.enabled or _TRACER.enabled:
            rates = alloc.sum(axis=0)
            jain = (
                jain_index(rates[requesting]) if bool(requesting.any()) else 1.0
            )
            if _OBS.enabled:
                _SIM_SLOTS.inc()
                _SIM_JAIN.set(jain)
            _TRACER.emit(
                SIM_SLOT,
                t=self._t,
                requesting=int(requesting.sum()),
                allocated_kbps=float(alloc.sum()),
                jain=jain,
            )

    def close(self) -> None:
        """Shut down the worker processes (``procs`` engine; no-op for
        the in-process engines).  Safe to call more than once; the
        coordinator also cleans up on garbage collection.  A closed
        ``procs`` simulation raises ``RuntimeError`` on further use."""
        if self._shards is not None:
            self._shards.close()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    @cached_property
    def _labels(self) -> tuple[str, ...]:
        """Per-peer display labels (from the configs: the procs engine
        keeps its peer states in the workers), built on the first run
        and shared by every later result — at 10^5 peers building them
        cost a run tens of milliseconds."""
        return tuple(c.label or f"peer {i}" for i, c in enumerate(self.configs))

    def run(
        self,
        slots: int,
        record_allocations: bool = False,
        history: str | None = "full",
    ) -> SimulationResult:
        """Simulate ``slots`` further slots and return the recorded result.

        ``history`` selects how much per-slot state is kept:

        * ``"full"`` (default) — per-slot rates, request indicators and
          capacities as ``(slots, n)`` arrays plus the ``(n, n)`` mean
          allocation matrix: the complete :class:`SimulationResult`.
        * ``"rates"`` — the ``(slots, n)`` arrays but no allocation
          matrices (``mean_alloc`` is ``None``); the sparse engines then
          never materialise a dense slot.
        * ``"none"`` (or ``None``) — O(n) running aggregates only
          (per-peer rate/capacity/isolation sums and request counts);
          the result's summary accessors (mean capacity, isolation
          baseline, mean rate while requesting) keep working, and
          everything needing the per-slot record raises ``ValueError``.

        With ``record_allocations`` (requires ``history="full"``) the
        full allocation history is preallocated up front as one
        ``(slots, n, n)`` float64 array, i.e. ``slots * n**2 * 8`` bytes
        (a 10 000-slot run of 100 peers holds ~800 MB, and 1 000 peers
        would need ~80 GB).
        """
        if slots < 1:
            raise ValueError(f"slots must be positive, got {slots}")
        if history is None:
            history = "none"
        if history not in ("full", "rates", "none"):
            raise ValueError(
                f"history must be 'full', 'rates' or 'none', got {history!r}"
            )
        if record_allocations and history != "full":
            raise ValueError("record_allocations requires history='full'")
        if history == "none":
            return self._run_streaming(slots)
        compact = self._shards is not None
        full = history == "full"
        rates = np.zeros((slots, self.n))
        requesting = np.zeros((slots, self.n), dtype=bool)
        capacities = np.zeros((slots, self.n))
        mean_alloc = alloc_history = None
        if full:
            mean_alloc = np.zeros((self.n, self.n))  # repro: allow[sim-dense-alloc]
        if record_allocations:
            alloc_history = np.zeros((slots, self.n, self.n))  # repro: allow[sim-dense-alloc]
        with _spans.span_scope("sim.run", slots=slots, n=self.n):
            for s in range(slots):
                if compact and not full:
                    _, R, _, rates_c, (req, caps) = self._in_step_span(
                        lambda: self._step_compact(dense=True)
                    )
                    rates[s, R] = rates_c
                else:
                    alloc, req, caps = self.step()
                    rates[s] = alloc.sum(axis=0)
                    if full:
                        mean_alloc += alloc
                    if alloc_history is not None:
                        alloc_history[s] = alloc
                requesting[s] = req
                capacities[s] = caps
        if full:
            mean_alloc /= slots
        return SimulationResult(
            rates=rates,
            requesting=requesting,
            capacities=capacities,
            mean_alloc=mean_alloc,
            slot_seconds=self.slot_seconds,
            alloc_history=alloc_history,
            labels=self._labels,
        )

    def _run_streaming(self, slots: int) -> SimulationResult:
        """``history="none"``: O(n) streaming aggregates only.  Each shard
        kernel folds its own rows' sums as it credits the slot (placed
        into disjoint slices afterwards — exact, not approximate); only
        the per-slot Jain record, which needs the global compact rate
        vector, is appended on this side."""
        metrics = StreamingMetrics(self.n, slots)
        compact = self._shards is not None
        if compact:
            self._shards.begin_metrics(slots)
        with _spans.span_scope("sim.run", slots=slots, n=self.n):
            for s in range(slots):
                if compact:
                    _, R, _, rates_c, _ = self._in_step_span(self._step_compact)
                    metrics.jain.append(jain_index(rates_c) if R.size else 1.0)
                else:
                    alloc, req, caps = self.step()
                    metrics.update_dense(s, alloc.sum(axis=0), req, caps)
        if compact:
            lo = 0
            for part in self._shards.end_metrics():
                metrics.place(lo, part)
                lo += part.n
        return SimulationResult(
            rates=None,
            requesting=None,
            capacities=None,
            mean_alloc=None,
            slot_seconds=self.slot_seconds,
            labels=self._labels,
            summary=metrics.summary(),
        )
