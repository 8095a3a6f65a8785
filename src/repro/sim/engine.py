"""The discrete-time simulation engine (Section V's simulator).

Each slot the engine: samples every user's request indicator, asks every
peer's allocator for its proposed upload division, enforces physical
feasibility, credits every receiving peer's ledger, and records rates.
"Each peer reallocated their upload bandwidths once per second" — one
slot is one reallocation round; ``slot_seconds`` only scales ledger
accumulation so coarser slots can be used for day-long scenarios without
changing the fixed-point of Equation (2).

Grants, capacities and ledgers are whole bytes
(:mod:`repro.core.apportion`): a slot's grants are bytes per second,
apportioned by one cumulative-floor rule, and a ledger gains
``floor(grant * slot_seconds)`` bytes.  ``step()``'s matrix, the rates
and the trace fields read them back in kbps (and kbps x s).

Three slot implementations produce those slots:

* ``reference`` — the original per-peer loop: one row of the
  apportionment rule per peer per slot (an Equation (2)/(3) row, or an
  ``allocate()`` proposal made feasible).  Simple, obviously correct,
  O(n) Python round-trips per slot; the oracle every other path is
  tested against.
* ``batched`` — peers are partitioned at construction into a *fast set*
  (allocator classes implementing the
  :class:`~repro.core.allocation.BatchedAllocator` protocol, grouped by
  class: every class-stateless built-in, free riders included) and a
  *slow set* (strategies with per-instance state — coalitions, fractions,
  private RNGs — and custom ones, which keep the per-peer path
  unchanged).  A slot's grants are one compact block ``M`` (every giver
  x the requesters ``R``; every grant to a non-requester is 0), and
  fast groups compute whole row blocks of it in one shot — through the
  runtime-compiled kernels of :mod:`repro.sim.fastpath` when available,
  else pure-numpy matrix expressions — demand and capacity are
  pre-sampled in time blocks for processes that declare themselves
  ``blockable``, and ledger credit is a single (tiled) ``L[R] += M.T``
  per slot, which also yields the rates (``M``'s column sums).
  O(n^2) memory (the dense ledger matrix) and O(n |R|) compute per slot.
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
  (:mod:`repro.sim.procs`).  The in-process kernel has measured
  faster on every input, so ``procs`` runs only when asked for by name.

``engine="auto"`` is a two-way rule over what the code can observe (see
:meth:`Simulation._auto_engine`): ``batched`` while ``n`` is below the
sparse threshold and the dense engines' three ``(n, n)`` arrays fit four
times into available memory, ``sparse`` otherwise.  Every construction
emits a ``sim.engine_selected`` trace event recording the engine, the
rule that chose it (``"requested"`` for an explicit engine) and the
worker-process count (0 for the in-process engines).

The engines are **bit-identical**: they apportion the same integers by
the same rule, and integer sums are exact in any order, tile or shard
split; block RNG draws consume the per-peer streams exactly like scalar
draws; the only floats — float proposals of custom allocators, ledger
credit over a fractional slot, forgetting — are the same elementwise
double operations everywhere.  ``tests/sim/test_engine_batched.py``,
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

from .. import native
from ..core.allocation import Allocator, PeerwiseProportionalAllocator
from ..core.apportion import (
    BYTES_PER_KBIT,
    apportion,
    credits_of,
    decay,
    eq2_grants,
    feasible_grants,
    rate_bytes,
    slot_credit,
)
from ..core.baselines import GlobalProportionalAllocator
from ..core.fairness import jain_index
from ..core.ledger import DEFAULT_INITIAL_CREDIT, ByteLedger
from ..obs import REGISTRY as _OBS
from ..obs import TRACER as _TRACER
from ..obs import spans as _spans
from ..obs.events import SIM_ENGINE_SELECTED, SIM_FEEDBACK, SIM_SLOT
from . import fastpath
from .metrics import SimulationResult, StreamingMetrics
from .peer import PeerConfig, PeerState
from .shard import FAST_ALLOCATORS, TIME_BLOCK, LocalShard, column_sums

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


def _at(rows: np.ndarray | None, R: np.ndarray) -> tuple:
    """Where a compact block over givers ``rows`` (every peer when
    ``None``) and requesters ``R`` sits in the dense ``(n, n)`` matrix."""
    return (slice(None), R) if rows is None else np.ix_(rows, R)


def _gather_index(ids: np.ndarray, n: int) -> np.ndarray:
    """Position of each of ``n`` peers among ``ids``, ``len(ids)`` (the
    padding) for a peer that is not there."""
    where = np.full(n, ids.size, dtype=np.intp)
    where[ids] = np.arange(ids.size)
    return where


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
        The small positive ledger initialisation of Equation (2), in
        kbps x s: every ledger row's float background under its whole
        bytes.  A row holding no byte from any requester splits equally,
        which is what a common background gives.
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
        if not 0 < slot_seconds < float("inf"):
            # Finite: a ledger credit is floor(grant * slot_seconds).
            raise ValueError(
                f"slot_seconds must be positive and finite, got {slot_seconds}"
            )
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
        #: Bytes credited since the last feedback flush, counted while
        #: tracing (the ``sim.feedback`` event's total).
        self._credited = 0
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
        # All ledgers live as rows of one shared byte matrix so Equation
        # (2) for the whole network is one batched call; each peer's
        # ledger is a ByteLedger over its row and the shared background.
        self._credit_matrix = np.zeros((self.n, self.n), dtype=np.int64)  # repro: allow[sim-dense-alloc]
        self._background = np.full(
            self.n, initial_credit if initial_credit > 0 else DEFAULT_INITIAL_CREDIT
        )
        self._forgetting = np.array([cfg.forgetting for cfg in self.configs])
        self._forget_rows = np.flatnonzero(self._forgetting < 1.0)
        self.peers = [
            PeerState(
                i, cfg, self.n, initial_credit,
                ledger=ByteLedger(self._credit_matrix[i], self._background, i, cfg.forgetting),
            )
            for i, cfg in enumerate(self.configs)
        ]
        # Credit awaiting a feedback flush: only a deferred flush has
        # any (the batched engine folds instant feedback straight into
        # the ledgers).
        self._pending_feedback = None
        if mode == "reference" or self.feedback_interval > 1:
            self._pending_feedback = np.zeros((self.n, self.n), dtype=np.int64)  # repro: allow[sim-dense-alloc]
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

        The dense engines carry three (n, n) int64 arrays (ledger
        matrix, pending feedback, per-slot grants: at most that under
        ``batched``, whose grant block is n x |R|); ``batched`` runs
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
        # representative computes the whole group.  The kernels' state
        # outlives every slot, so it crosses into C bound once: each
        # group's rows here, the ledgers and M's storage below.
        self._groups: list[tuple[object, native.Bound, str]] = []
        for cls, idxs in by_class.items():
            rows = native.Bound(np.asarray(idxs, dtype=np.int64))
            if cls is PeerwiseProportionalAllocator:
                kind = "eq2"
            elif cls is GlobalProportionalAllocator:
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
        #: Backing store of the slot's compact grant block ``M`` (n x
        #: |R|, its first n |R| entries), rewritten every slot and
        #: consumed within it; reserved once for |R| = n, so a slot never
        #: allocates it (a fresh multi-MiB array faults its pages in
        #: afresh) and only the pages the largest block has written are
        #: ever resident.  Scratch, so memory_bytes() does not count it.
        block = np.empty((self.n, self.n), dtype=np.int64)  # repro: allow[sim-dense-alloc]
        self._block = native.Bound(block.reshape(-1))
        self._ledgers = native.Bound(self._credit_matrix)
        if self._pending_feedback is not None:
            self._pending = native.Bound(self._pending_feedback)

    @property
    def backend(self) -> str:
        """Which slot loop runs: ``reference``, ``batched`` / ``sparse``
        / ``procs`` (numpy) or ``batched+native`` / ``sparse+native`` /
        ``procs+native`` (compiled, single-threaded kernels)."""
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
        """Dense ``(n, n)`` ledger bytes, whichever engine runs (the
        float background is not included: ``peers[i].ledger.credits``
        reads a row in kbps x s).

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
        metric).  Dense: ledger matrix + pending feedback (held when a
        flush is deferred, and always by ``reference``) + prefetch
        buffers.
        """
        if self._shards is not None:
            return sum(s["memory_bytes"] for s in self._shards.shard_stats())
        total = self._credit_matrix.nbytes
        if self._pending_feedback is not None:
            total += self._pending_feedback.nbytes
        if self._mode == "batched":
            total += self._req_block.nbytes + self._cap_block.nbytes
        return int(total)

    def step(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance one slot; returns ``(allocation_matrix, requesting, capacities)``.

        ``allocation_matrix[i, j]`` is ``mu_ij(t)`` in kbps: the slot's
        whole-byte grant over 125.  Every engine but ``reference``
        materialises it from the slot's compact block — use :meth:`run`
        with ``history="none"`` to keep large populations
        allocation-free.
        """
        rows, R, M, _, requesting, capacities = self._in_step_span(self._step_block)
        if rows is None and R.size == self.n:
            return M / BYTES_PER_KBIT, requesting, capacities  # M is the matrix
        # The dense matrix is gathered from M with a zero row and column
        # appended, which every peer outside rows / R indexes: one take
        # per axis, ~3x faster at n = 1024 than assigning the block
        # through fancy indices along the last axis.
        padded = np.zeros((M.shape[0] + (rows is not None), R.size + 1))
        np.divide(M, BYTES_PER_KBIT, out=padded[: M.shape[0], : R.size])
        allocation = padded.take(_gather_index(R, self.n), axis=1)
        if rows is not None:
            allocation = allocation.take(_gather_index(rows, self.n), axis=0)
        return allocation, requesting, capacities

    def _in_step_span(self, step):
        if _TRACER.enabled:
            # Per-slot causal span (children: this slot's trace events);
            # tracing-off stays the bare call below.
            with _spans.span_scope("sim.step", t=self._t):
                return step()
        return step()

    def _step_block(self) -> tuple:
        """One slot as ``(rows, R, M, rates, requesting, capacities)``:
        ``M[r, a]`` is the grant from giver ``rows[r]`` (every peer when
        ``rows`` is ``None``) to requester ``R[a]``, which holds every
        nonzero grant of the slot, and ``rates`` its column sums in
        kbps."""
        if self._shards is not None:
            act, R, M, rates, (requesting, capacities) = self._step_compact(dense=True)
            return act, R, M, rates, requesting, capacities
        if self._mode == "batched":
            return None, *self._step_batched()
        grants, requesting, capacities = self._step_reference()
        R = np.flatnonzero(requesting)
        M = grants[:, R]
        return None, R, M, column_sums(M), requesting, capacities

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
        R = np.flatnonzero(requesting)
        budgets = rate_bytes(capacities)
        grants = np.zeros((self.n, self.n), dtype=np.int64)  # repro: allow[sim-dense-alloc]
        for i, peer in enumerate(self.peers):
            cap = budgets[i : i + 1]
            kind = type(peer.config.allocator)
            if kind is PeerwiseProportionalAllocator:
                row = eq2_grants(cap, self._credit_matrix[i, R][None])
            elif kind is GlobalProportionalAllocator:
                row = apportion(cap, rate_bytes(declared[R])[None])
            else:
                proposal = peer.config.allocator.allocate(
                    i, capacities[i], requesting, peer.ledger, declared, t
                )
                row = feasible_grants(cap, proposal[R][None])
            grants[i, R] = row[0]
        if alloc_start is not None:
            _SIM_ALLOC_NS.observe(time.perf_counter_ns() - alloc_start)
        # Credit every receiving peer's local ledger.  Credits accumulate
        # bytes, so coarser slots weigh proportionally more.  With
        # delayed feedback, each user's measurements buffer locally and
        # reach its home peer as a batch every feedback_interval slots
        # (the paper's periodic informational update).
        credit = slot_credit(grants.T, self.slot_seconds)  # row j = user j's view
        if _TRACER.enabled:
            self._count_credit(credit)
        self._pending_feedback += credit
        if (t + 1) % self.feedback_interval == 0:
            self._apply_forgetting()
            self._credit_matrix += self._pending_feedback
            self._pending_feedback[:] = 0
            self._flushed(t)
        for peer in self.peers:
            peer.config.allocator.on_slot_end(t)
        if _OBS.enabled or _TRACER.enabled:
            rates = column_sums(grants)
            self._emit(R.size, grants, jain_index(rates[R]) if R.size else 1.0)
        self._t += 1
        return grants, requesting, capacities

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

    def _step_batched(self) -> tuple[np.ndarray, ...]:
        """One slot: ``(R, M, rates, requesting, capacities)``, ``M`` the
        compact grant block (every giver x the requesters ``R``) in the
        reused buffer, valid until the next slot, and ``rates`` its
        column sums in kbps."""
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
        R = np.flatnonzero(requesting)
        budgets = rate_bytes(capacities)

        alloc_start = time.perf_counter_ns() if _OBS.enabled else None
        if sample_start is not None:
            _SIM_SAMPLE_NS.observe(alloc_start - sample_start)
        M = self._block.array[: n * R.size].reshape(n, R.size)
        ledgers = self._credit_matrix
        kernels = self._kernels
        for rep, bound_rows, kind in self._groups:
            rows = bound_rows.array
            caps = budgets[rows]
            if kind == "eq2":
                if kernels is not None:
                    kernels.alloc_rows_eq2(self._ledgers, R, caps, bound_rows, self._block)
                else:
                    M[rows] = eq2_grants(caps, ledgers[np.ix_(rows, R)])
            elif kind == "eq3":
                wR = rate_bytes(declared[R])
                if kernels is not None:
                    kernels.rows_shared(bound_rows, wR, caps, self._block)
                else:
                    M[rows] = apportion(caps, np.broadcast_to(wR, (rows.size, wR.size)))
            else:
                proposals = rep.allocate_rows(
                    rows, capacities[rows], requesting,
                    credits_of(ledgers[rows], self._background[rows, None]), declared, t,
                )
                M[rows] = feasible_grants(caps, proposals[:, R])
        for i in self._slow_rows:
            peer = self.peers[i]
            proposal = peer.config.allocator.allocate(
                i, capacities[i], requesting, peer.ledger, declared, t
            )
            M[i] = feasible_grants(budgets[i : i + 1], proposal[R][None])[0]
        credit_start = None
        if alloc_start is not None:
            credit_start = time.perf_counter_ns()
            _SIM_ALLOC_NS.observe(credit_start - alloc_start)

        weight = self.slot_seconds
        if _TRACER.enabled:
            self._count_credit(slot_credit(M, weight))
        flush = (t + 1) % self.feedback_interval == 0
        if self.feedback_interval == 1:
            # Instant feedback: fold straight into the ledger matrix.
            self._apply_forgetting()
            rates = self._tadd(self._ledgers, M, R, weight)
        else:
            rates = self._tadd(self._pending, M, R, weight)
            if flush:
                self._apply_forgetting()
                self._credit_matrix += self._pending_feedback
                self._pending_feedback[:] = 0
        if flush:
            self._flushed(t)
        for hook in self._slot_end_hooks:
            hook(t)
        if credit_start is not None:
            _SIM_CREDIT_NS.observe(time.perf_counter_ns() - credit_start)
        if _OBS.enabled:
            _SIM_BATCHED_SLOTS.inc()
            _SIM_FAST_PEERS.set(n - len(self._slow_rows))
        if _OBS.enabled or _TRACER.enabled:
            self._emit(R.size, M, jain_index(rates) if R.size else 1.0)
        self._t += 1
        return R, M, rates, requesting, capacities

    # -- shard-kernel engines (sparse, procs) --------------------------

    def _step_compact(self, dense: bool = False) -> tuple:
        """One slot over the active set, through the shard kernel(s).

        The shards sample, allocate and credit; this side owns what
        spans them: the compact rates (:func:`~repro.sim.shard.column_sums`,
        once over the whole ``M``) and the trace totals.  Returns
        ``(act, R, M, rates, vectors)``: ``R`` (sorted) the requesters
        as the shards sampled them, ``act`` (sorted) the givers with
        nonzero rows this slot, ``M[r, a]`` the grant from ``act[r]`` to
        ``R[a]`` — the nonzero block of the dense grant matrix — and
        ``rates`` its column sums in kbps.  ``vectors`` is the dense
        ``(requesting, capacities)`` pair when ``dense`` asks for it
        (built from the shards' class rows), else ``None``.
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
        flush = (t + 1) % self.feedback_interval == 0
        if _TRACER.enabled:
            self._count_credit(slot_credit(M, weight))
        shards.credit(t, act, R, M, rates, weight, flush)
        if timed:
            _SIM_CREDIT_NS.observe(time.perf_counter_ns() - credit_start)
        if flush:
            self._flushed(t)
        if _OBS.enabled:
            self._slot_counter.inc()
            _SIM_FAST_PEERS.set(self.n - len(self._slow_rows))
        if _OBS.enabled or _TRACER.enabled:
            self._emit(R.size, M, jain_index(rates) if R.size else 1.0)
        self._t += 1
        return act, R, M, rates, vectors

    def _count_credit(self, credit: np.ndarray) -> None:
        """Add a slot's ledger bytes to the running flush total."""
        self._credited += int(credit.sum())

    def _flushed(self, t: int) -> None:
        """A feedback flush closed slot ``t``: its event and counter."""
        _TRACER.emit(SIM_FEEDBACK, t=t, credited=self._credited / BYTES_PER_KBIT)
        self._credited = 0
        if _OBS.enabled:
            _SIM_FEEDBACK_FLUSHES.inc()

    def _apply_forgetting(self) -> None:
        if self._forget_rows.size:
            rows = self._forget_rows
            self._credit_matrix[rows] = decay(
                self._credit_matrix[rows], self._forgetting[rows, None]
            )
            self._background[rows] *= self._forgetting[rows]

    def _tadd(self, target: native.Bound, M: np.ndarray, R: np.ndarray, weight: float) -> np.ndarray:
        """``target[R] += slot_credit(M.T, weight)`` (the ledger-credit
        transpose of the compact block ``M``, a view of ``_block``: only
        the requesters' rows of ``target`` gain anything); returns the
        rates, ``M``'s column sums in kbps, which the kernel takes in
        the same pass."""
        if self._kernels is None:
            # Strip-tiled so the transposed read stays cache-resident.
            for s in range(0, R.size, 128):
                target.array[R[s : s + 128]] += slot_credit(M[:, s : s + 128].T, weight)
            return column_sums(M)
        sums = np.empty(R.size, dtype=np.int64)
        self._kernels.ledger_tadd(target, self._block, R, weight, sums)
        return sums / BYTES_PER_KBIT

    def _emit(self, requesting: int, grants: np.ndarray, jain: float) -> None:
        """A slot's metrics and ``sim.slot`` event from its grants (the
        dense matrix or the compact block: the same integer total)."""
        if _OBS.enabled:
            _SIM_SLOTS.inc()
            _SIM_JAIN.set(jain)
        _TRACER.emit(
            SIM_SLOT,
            t=self._t,
            requesting=requesting,
            allocated_kbps=int(grants.sum()) / BYTES_PER_KBIT,
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
        if history not in ("full", "none"):
            raise ValueError(f"history must be 'full' or 'none', got {history!r}")
        if record_allocations and history != "full":
            raise ValueError("record_allocations requires history='full'")
        if history == "none":
            return self._run_streaming(slots)
        rates = np.zeros((slots, self.n))
        requesting = np.zeros((slots, self.n), dtype=bool)
        capacities = np.zeros((slots, self.n))
        # Transposed, so a slot adds its block's requesters as whole rows.
        total_T = np.zeros((self.n, self.n), dtype=np.int64)  # repro: allow[sim-dense-alloc]
        alloc_history = None
        if record_allocations:
            alloc_history = np.zeros((slots, self.n, self.n))  # repro: allow[sim-dense-alloc]
        with _spans.span_scope("sim.run", slots=slots, n=self.n):
            for s in range(slots):
                rows, R, M, rates_c, req, caps = self._in_step_span(self._step_block)
                rates[s, R] = rates_c
                if rows is None:
                    total_T[R] += M.T
                else:
                    total_T[np.ix_(R, rows)] += M.T
                if alloc_history is not None:
                    alloc_history[s][_at(rows, R)] = M / BYTES_PER_KBIT
                requesting[s] = req
                capacities[s] = caps
        return SimulationResult(
            rates=rates,
            requesting=requesting,
            capacities=capacities,
            mean_alloc=np.ascontiguousarray(total_T.T) / (BYTES_PER_KBIT * slots),
            slot_seconds=self.slot_seconds,
            alloc_history=alloc_history,
            labels=self._labels,
        )

    def _run_streaming(self, slots: int) -> SimulationResult:
        """``history="none"``: O(n) streaming aggregates only.  Each shard
        kernel folds its own rows' sums as it credits the slot; one
        kernel spanning the population hands over the run's sums as they
        are, several are placed into disjoint slices (exact, not
        approximate).  Only the per-slot Jain record, which needs the
        global compact rate vector, is appended on this side."""
        compact = self._shards is not None
        if compact:
            self._shards.begin_metrics(slots)
            jain: list[float] = []
        else:
            metrics = StreamingMetrics(self.n, slots)
        with _spans.span_scope("sim.run", slots=slots, n=self.n):
            for s in range(slots):
                if compact:
                    _, R, _, rates_c, _ = self._in_step_span(self._step_compact)
                    jain.append(jain_index(rates_c) if R.size else 1.0)
                else:
                    _, R, _, rates_c, req, caps = self._in_step_span(self._step_block)
                    rates = np.zeros(self.n)
                    rates[R] = rates_c
                    metrics.update_dense(s, rates, req, caps)
        if compact:
            parts = self._shards.end_metrics()
            if len(parts) == 1:
                (metrics,) = parts
            else:
                metrics = StreamingMetrics(self.n, slots)
                lo = 0
                for part in parts:
                    metrics.place(lo, part)
                    lo += part.n
            metrics.jain = jain
        return SimulationResult(
            rates=None,
            requesting=None,
            capacities=None,
            mean_alloc=None,
            slot_seconds=self.slot_seconds,
            labels=self._labels,
            summary=metrics.summary(),
        )
