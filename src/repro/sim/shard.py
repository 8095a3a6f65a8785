"""The shard kernel: one contiguous peer range of the sparse slot engine.

Equation (2) is local by construction — peer ``i``'s row needs only its
own ledger ``C_i[.]`` and the slot's request/capacity vectors — so a
contiguous peer range ``[lo, hi)`` of an ``n``-peer population is a
self-contained unit of work.  :class:`ShardKernel` is that unit, and the
only implementation of the large-``n`` slot step: it owns the range's
ledger rows, sampling plans, deferred feedback and streaming sums, and
runs a slot as three array-in/array-out phases:

1. :meth:`~ShardKernel.sample` — the range's slice of the request
   indicators, capacities and declared capacities;
2. :meth:`~ShardKernel.alloc` — given the *global* vectors, the range's
   rows of the compact allocation matrix ``M`` (active givers x
   requesters): Equation (2)/(3) plus feasibility, through the native
   kernels when available;
3. :meth:`~ShardKernel.credit` — given the range's column block of
   ``M``, the ledger credit (or its deferral), the allocators' slot-end
   hooks and the metrics fold.

Who moves the arrays between kernels is not the kernel's business:
``engine="sparse"`` is one kernel over ``[0, n)`` called in-process
(:class:`LocalShard`), ``engine="procs"`` is W kernels in forked
workers behind :mod:`repro.sim.shardmsg` (:mod:`repro.sim.procs`).
Every floating-point reduction here is row-local or replayed from
global positions (:func:`~repro.sim.sparse.sparse_pairwise`), so any
contiguous split yields the same bits as the reference loop —
``tests/sim/test_shard_kernel.py`` holds that property without a
transport in the way.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.allocation import (
    Allocator,
    PeerwiseProportionalAllocator,
    enforce_feasibility,
)
from ..core.baselines import GlobalProportionalAllocator
from ..core.ledger import DEFAULT_INITIAL_CREDIT
from . import fastpath
from .capacity import ConstantCapacity, StepCapacity
from .demand import (
    AlwaysOn,
    DutyCycleDemand,
    NeverRequests,
    RandomHoursDemand,
    ScheduleDemand,
)
from .metrics import StreamingMetrics
from .peer import PeerConfig, PeerState
from .sparse import SparseLedgers, SparseLedgerView, sparse_pairwise

__all__ = [
    "ShardKernel", "LocalShard", "ClassFold", "needs_declared", "column_sums",
]

#: Slots of demand/capacity pre-sampled per blockable peer at a time.
TIME_BLOCK = 256

#: What the time-block length rule budgets for 9 bytes per peer per slot
#: over the whole population (see ``ShardKernel.__init__``).
_BLOCK_BYTES_BUDGET = 64 << 20


class _LazyRngs:
    """Per-peer demand RNG streams, created on first use.

    The dense engines pre-build one ``default_rng((seed, i))`` per peer;
    at 10^6 peers that is a gigabyte of generator state for streams the
    deterministic-demand grouping mostly never touches.  Identical
    seeding, identical streams — just lazy.
    """

    __slots__ = ("_seed", "_cache")

    def __init__(self, seed: int):
        self._seed = seed
        self._cache: dict[int, np.random.Generator] = {}

    def __getitem__(self, i: int) -> np.random.Generator:
        rng = self._cache.get(i)
        if rng is None:
            rng = np.random.default_rng((self._seed, i))
            self._cache[i] = rng
        return rng


def _demand_group_key(d) -> tuple:
    """Equivalence key for deterministic blockable demand processes.

    Two demands with the same key produce identical ``sample_block``
    output for every window, so one representative call serves the whole
    group.  Exact builtin types are grouped by value; anything else
    (user subclasses, traces) only by instance identity, which is still
    the common case at scale (cohorts sharing one process object).
    """
    cls = type(d)
    if cls is AlwaysOn:
        return ("always",)
    if cls is NeverRequests:
        return ("never",)
    if cls is ScheduleDemand:
        return ("sched", d.intervals)
    if cls is DutyCycleDemand or cls is RandomHoursDemand:
        return ("duty", tuple(sorted(d.active_hours)), d.slot_seconds)
    return ("inst", id(d))


def _capacity_group_key(c) -> tuple:
    """Equivalence key for blockable capacity profiles (all rng-free)."""
    cls = type(c)
    if cls is ConstantCapacity:
        return ("const", c.kbps)
    if cls is StepCapacity:
        return ("step", tuple(c._starts), tuple(c._values))
    return ("inst", id(c))


def _group_rows(groups: dict, by_id: dict, process, key) -> list[int]:
    """The row list of ``process``'s equivalence group, found by object
    identity first: a cohort shares *one* process object, so its value
    key (a schedule's whole interval tuple) is built and hashed once per
    object, not once per peer.  Equal-valued distinct objects still meet
    in the value key's group."""
    rows = by_id.get(id(process))
    if rows is None:
        rows = by_id[id(process)] = groups.setdefault(key(process), [])
    return rows


def needs_declared(configs: Sequence[PeerConfig]) -> bool:
    """Whether any peer anywhere consults declared capacities (an
    Equation (3) or slow-path row) — a *global* property: if one shard
    needs them, every shard must publish its slice each slot."""
    return any(
        type(c.allocator) is not PeerwiseProportionalAllocator for c in configs
    )


def column_sums(M: np.ndarray) -> np.ndarray:
    """The compact rates ``M.sum(axis=0)``, rounded as the dense engines
    round theirs: rows added in ascending order.

    numpy reduces a C-contiguous ``(k, A)`` block over axis 0 exactly
    that way — unless ``A == 1``, where the reduction runs along
    contiguous memory and switches to pairwise summation (other bits
    from ``k >= 8`` rows on).  Summed once over the whole ``M``, never
    per column block, for the same reason.
    """
    if M.shape[1] == 1 and M.shape[0]:
        return np.add.accumulate(M[:, 0])[-1:]
    return M.sum(axis=0)


def _feasibility(row: np.ndarray, cap: float, R: np.ndarray, n: int) -> np.ndarray:
    """:func:`enforce_feasibility` over the compact request set."""
    total = sparse_pairwise(R, row, n)
    if total > cap:  # cap > 0 guaranteed by the active-giver filter
        row *= cap / total
        if sparse_pairwise(R, row, n) > cap:
            # Rare rounding overshoot: clamp the running sum (the
            # dense cumsum never crosses cap at a zero cell, so the
            # compact clamp produces the identical entries).
            row = np.diff(np.minimum(np.cumsum(row), cap), prepend=0.0)
    return row


def _columns(size: int, groups: list[np.ndarray], solo: np.ndarray) -> np.ndarray:
    """Per-row column ids: group ``g``'s rows share column ``g``, and
    each ``solo`` row gets a column of its own after them (one
    vectorised store per group, none per peer)."""
    col = np.empty(size, dtype=np.int64)
    for g, rows in enumerate(groups):
        col[rows] = g
    col[solo] = len(groups) + np.arange(solo.size)
    return col


class ClassFold:
    """One shard's ``history="none"`` sums, folded per sampling class.

    ``request_count``, ``capacity_sum`` and ``isolation_sum`` read only
    a peer's request indicator and capacity, which are equal across a
    sampling class by construction; so they are summed once per class
    per slot, in O(classes), and expanded through ``class_of`` at the
    end.  Every member of a class receives the sequence of IEEE
    additions it would have received alone, so the expansion is exact.
    The rate sums are per peer and touch only the slot's requesters.
    """

    def __init__(self, class_of: np.ndarray, classes: int, slots: int):
        self.class_of = class_of
        self.sums = StreamingMetrics(class_of.size, slots)
        self.request_count = np.zeros(classes, dtype=np.int64)
        self.capacity_sum = np.zeros(classes)
        self.isolation_sum = np.zeros(classes)

    def fold(
        self,
        s: int,
        R: np.ndarray,
        rates_c: np.ndarray,
        req_c: np.ndarray,
        cap_c: np.ndarray,
    ) -> None:
        """Fold slot ``s``: ``R`` the requesters' rows (sorted, local to
        the shard), ``rates_c`` their rates, ``req_c`` / ``cap_c`` the
        slot's request indicator and capacity per class.  Zero cells
        outside ``R`` are exact no-ops in every rate sum."""
        sums = self.sums
        if R.size:
            sums.rate_sum[R] += rates_c
            sums.gain_sum[R] += rates_c - cap_c[self.class_of[R]]
            if s >= sums.window_start:
                sums.window_rate_sum[R] += rates_c
        self.request_count += req_c
        self.capacity_sum += cap_c
        self.isolation_sum += np.where(req_c, cap_c, 0.0)

    def expand(self) -> StreamingMetrics:
        """The per-peer :class:`StreamingMetrics` of the folded slots."""
        sums = self.sums
        for name in ("request_count", "capacity_sum", "isolation_sum"):
            getattr(self, name).take(self.class_of, out=getattr(sums, name))
        return sums


class ShardKernel:
    """Ledger rows, sampling plans and slot phases for peers ``[lo, hi)``.

    ``configs`` is the whole population (``n = len(configs)``); the
    kernel keeps only its slice.  It owns the range's
    :class:`~repro.sim.sparse.SparseLedgers` rows (plus a dense-island
    :class:`~repro.sim.peer.PeerState` per slow-path peer), the eq2 /
    eq3 / slow partition, the per-class demand/capacity prefetch tables,
    the deferred-feedback buffer and, during a ``history="none"`` run, a
    :class:`ClassFold`.  Each peer belongs to one **sampling class**
    (``class_of``): peers of a class share their deterministic demand
    group and their capacity group, so they request and contribute
    alike every slot; an rng-drawn or slot-sampled peer is a class of
    its own.  Sampling and the metrics fold work per class, and one
    ``take`` through ``class_of`` spreads a slot over the peers.  Row
    indices into the store and ``class_of`` are shard-local; every
    giver/taker/column index crossing the API is global, and per-peer
    RNG streams are seeded by global index, so the split never changes a
    draw.  ``needs_declared`` is the population-wide
    :func:`needs_declared` answer.
    """

    def __init__(
        self,
        configs: Sequence[PeerConfig],
        lo: int,
        hi: int,
        seed: int,
        initial_credit: float,
        feedback_interval: int,
        evict_age: int | None,
        needs_declared: bool,
    ):
        n = len(configs)
        configs = configs[lo:hi]
        self.lo = lo
        self.hi = hi
        self.n = n
        self.configs = configs
        self.feedback_interval = feedback_interval
        self.needs_declared = needs_declared
        self._kernels = fastpath.load()
        #: Whether the compiled sparse-row kernels drive the hot loops.
        self.native = self._kernels is not None
        self._initial_credit = initial_credit
        self.store = SparseLedgers(
            n,
            initial_credit if initial_credit > 0 else DEFAULT_INITIAL_CREDIT,
            np.array([c.forgetting for c in configs]),
            rows=hi - lo,
            evict_age=evict_age,
        )
        # Fast rows: exactly the two closed-form rules the kernel can
        # evaluate straight from the store.  Everything else — custom,
        # stateful, adversarial, and even other BatchedAllocator
        # implementers — stays on the per-peer reference path with a
        # real dense ledger row (a "dense island" inside the store).
        # Demand plan: deterministic blockable processes are grouped by
        # equivalence key (one rng-free sample_block serves the cohort;
        # value-identical per row however a split cuts the groups),
        # stochastic blockable ones keep their per-peer streams, the
        # rest sample slot by slot.  Capacity likewise: blockable
        # profiles by key, the rest slot by slot.
        eq2: list[int] = []
        eq3: list[int] = []
        self._slow_peers: list[PeerState] = []
        self._slot_end_hooks = []
        overrides: list[tuple[int, float]] = []
        det_groups: dict[tuple, list[int]] = {}
        cap_groups: dict[tuple, list[int]] = {}
        det_by_id: dict[int, list[int]] = {}
        cap_by_id: dict[int, list[int]] = {}
        self._rng_demand: list[int] = []
        self._slot_demand: list[int] = []
        self._slot_capacity: list[int] = []
        for i, cfg in enumerate(configs):
            cls = type(cfg.allocator)
            if cls is PeerwiseProportionalAllocator:
                eq2.append(lo + i)
            elif cls is GlobalProportionalAllocator:
                eq3.append(lo + i)
            else:
                island = self.store.dense_row(i)
                self._slow_peers.append(
                    PeerState(lo + i, cfg, n, initial_credit, credit_buffer=island)
                )
            # on_slot_end is a no-op unless overridden; pre-bind the
            # hooks that actually do something.
            if cls.on_slot_end is not Allocator.on_slot_end:
                self._slot_end_hooks.append(cfg.allocator.on_slot_end)
            if cfg.declared_capacity is not None:
                overrides.append((i, float(cfg.declared_capacity)))
            d = cfg.demand
            if not d.blockable:
                self._slot_demand.append(i)
            elif d.deterministic:
                _group_rows(det_groups, det_by_id, d, _demand_group_key).append(i)
            else:
                self._rng_demand.append(i)
            c = cfg.capacity
            if c.blockable:
                _group_rows(cap_groups, cap_by_id, c, _capacity_group_key).append(i)
            else:
                self._slot_capacity.append(i)
        self._eq2_rows = np.asarray(eq2, dtype=np.int64)
        self._eq3_rows = np.asarray(eq3, dtype=np.int64)
        self._declared_idx = np.array([i for i, _ in overrides], dtype=np.intp)
        self._declared_vals = np.array([v for _, v in overrides])
        # Sampling classes: a peer's demand column is its group's, or
        # one of its own when its demand draws from its rng or is
        # sampled slot by slot; its capacity column likewise.  A class
        # is one distinct (demand column, capacity column) pair.
        det = [np.asarray(rows, dtype=np.intp) for rows in det_groups.values()]
        caps = [np.asarray(rows, dtype=np.intp) for rows in cap_groups.values()]
        solo = np.asarray(self._rng_demand + self._slot_demand, dtype=np.intp)
        dcol = _columns(hi - lo, det, solo)
        ccol = _columns(hi - lo, caps, np.asarray(self._slot_capacity, dtype=np.intp))
        _, class_of = np.unique(
            dcol * (ccol.max(initial=0) + 1) + ccol, return_inverse=True
        )
        #: Shard-local row -> sampling class.
        self._class_of = class_of.astype(np.intp, copy=False)
        self.classes = int(class_of.max(initial=-1)) + 1
        # Each group writes the columns of its classes; each solo peer
        # is a class of its own: (local row, class) pairs.
        self._det_demand_groups = [
            (configs[rows[0]].demand, np.unique(class_of[rows])) for rows in det
        ]
        self._cap_groups = [
            (configs[rows[0]].capacity, np.unique(class_of[rows])) for rows in caps
        ]
        self._rng_demand, self._slot_demand, self._slot_capacity = (
            list(zip(rows, class_of[rows].tolist()))
            for rows in (self._rng_demand, self._slot_demand, self._slot_capacity)
        )
        self._rngs = _LazyRngs(seed)
        # Prefetch window.  The tables hold one bool and one float64 per
        # class per slot, but the length rule is still the one sized for
        # 9 bytes per peer per slot over the global n: every shard of a
        # split refreshes on the same cadence, and each rng stream is
        # drawn by sample_block in the chunks it always was.
        self._block = min(TIME_BLOCK, max(4, _BLOCK_BYTES_BUDGET // (9 * n)))
        self._block_start = -self._block  # force a build on first sample
        self._req_block = np.empty((self._block, self.classes), dtype=bool)
        self._cap_block = np.empty((self._block, self.classes))
        #: The per-class request/capacity rows of the slot last sampled
        #: (views into the prefetch tables; the metrics fold reads them).
        self._req_row = self._cap_row = None
        #: Deferred feedback (feedback_interval > 1): global receiver id
        #: -> [sorted giver ids, accumulated credit values].
        self._pending: dict[int, list[np.ndarray]] = {}
        self._metrics: ClassFold | None = None
        self._metrics_slot = 0

    # -- phase 1: sampling ---------------------------------------------

    def _refresh_blocks(self, t: int) -> None:
        """Pre-sample the next time block: one call per group, written
        into the columns of the group's classes."""
        self._block_start = t
        block = self._block
        for d, cols in self._det_demand_groups:
            self._req_block[:, cols] = np.asarray(
                d.sample_block(t, block, None), dtype=bool
            )[:, None]
        for i, c in self._rng_demand:
            self._req_block[:, c] = self.configs[i].demand.sample_block(
                t, block, self._rngs[self.lo + i]
            )
        for cap, cols in self._cap_groups:
            self._cap_block[:, cols] = cap.values(t, block)[:, None]

    def sample(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """This range's ``(requesting, capacities, declared)`` for slot
        ``t`` — ``declared`` is ``None`` unless the population needs it.
        Fresh arrays, gathered from the slot's class rows."""
        if not self._block_start <= t < self._block_start + self._block:
            self._refresh_blocks(t)
        off = t - self._block_start
        req_row = self._req_block[off]
        cap_row = self._cap_block[off]
        for i, c in self._slot_demand:
            req_row[c] = self.configs[i].demand.sample(t, self._rngs[self.lo + i])
        for i, c in self._slot_capacity:
            cap_row[c] = self.configs[i].capacity.value(t)
        self._req_row, self._cap_row = req_row, cap_row
        requesting = req_row.take(self._class_of)
        capacities = cap_row.take(self._class_of)
        declared = None
        if self.needs_declared:
            declared = capacities.copy()
            if self._declared_idx.size:
                declared[self._declared_idx] = self._declared_vals
        return requesting, capacities, declared

    # -- phase 2: allocation -------------------------------------------

    def alloc(
        self,
        t: int,
        requesting: np.ndarray,
        capacities: np.ndarray,
        declared: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """This range's rows of the compact allocation matrix.

        Takes the *global* slot vectors; returns ``(act, M)`` with
        ``act`` the range's givers with nonzero rows this slot (global
        ids, sorted) and ``M[r, a]`` the allocation from ``act[r]`` to
        the ``a``-th requester of the whole population — the nonzero
        block of the dense allocation matrix's rows ``[lo, hi)``.
        """
        R = np.flatnonzero(requesting).astype(np.int64, copy=False)
        A = R.size
        eq2, eq3 = self._eq2_rows, self._eq3_rows
        act2 = eq2[capacities[eq2] > 0.0] if A else eq2[:0]
        act3 = eq3[capacities[eq3] > 0.0] if A else eq3[:0]
        # Slow rows run the untouched per-peer path every slot (their
        # allocators may be stateful), compacted onto the active set.
        slow_pairs: list[tuple[int, np.ndarray]] = []
        for peer in self._slow_peers:
            i = peer.index
            proposal = peer.config.allocator.allocate(
                i, capacities[i], requesting, peer.ledger, declared, t
            )
            if A:
                row = enforce_feasibility(proposal, capacities[i], requesting)
                if row.any():
                    slow_pairs.append((i, row[R]))
        nact = act2.size + act3.size + len(slow_pairs)
        if A and nact:
            slow_act = np.asarray([i for i, _ in slow_pairs], dtype=np.int64)
            cat = np.concatenate([act2, act3, slow_act])
            order = np.argsort(cat, kind="stable")
            act = np.ascontiguousarray(cat[order])
            # Output row position of each source row: rates sum columns
            # over rows in ascending global order, so M is kept sorted.
            rowpos = np.empty(nact, dtype=np.int64)
            rowpos[order] = np.arange(nact, dtype=np.int64)
            M = np.empty((nact, A))
            self._eq2_block(act2, rowpos[: act2.size], R, capacities, M)
            n23 = act2.size + act3.size
            self._eq3_block(act3, rowpos[act2.size : n23], R, declared, capacities, M)
            for (_, row), p in zip(slow_pairs, rowpos[n23:]):
                M[p] = row
        else:
            act = np.empty(0, dtype=np.int64)
            M = np.empty((0, A))
        return act, M

    def _eq2_block(self, act, rowpos, R, capacities, M) -> None:
        """Equation (2) + feasibility for the active eq2 givers.

        Writes ``M[rowpos[r]]`` for each ``act[r]``; bit-identical to
        ``enforce_feasibility(allocate(...))`` on the dense vectors
        (zeros off the request set are exact no-ops in every reduction,
        and :func:`sparse_pairwise` replays numpy's dense sum over the
        surviving positions).
        """
        if not act.size:
            return
        store = self.store
        local = act - self.lo
        if self.native:
            # The kernel indexes the store's row tables by the ids it
            # is given (shard-local), while R and store.n keep the
            # column space global.
            self._kernels.sparse_rows_eq2(
                store, local, rowpos, R, np.ascontiguousarray(capacities[act]), M
            )
            return
        n = self.n
        for i, g, p in zip(local.tolist(), act.tolist(), rowpos.tolist()):
            cap = float(capacities[g])
            w = store.row_at(i, R)
            total = sparse_pairwise(R, w, n)
            if total <= 0.0:
                M[p] = 0.0
                continue
            row = cap * w
            row /= total
            M[p] = _feasibility(row, cap, R, n)

    def _eq3_block(self, act, rowpos, R, declared, capacities, M) -> None:
        """Equation (3) + feasibility for the active eq3 givers (one
        shared weight vector and total for the whole group)."""
        if not act.size:
            return
        n = self.n
        wR = np.ascontiguousarray(declared[R], dtype=np.float64)
        total = sparse_pairwise(R, wR, n)
        if total <= 0.0:
            M[rowpos] = 0.0
            return
        if self.native:
            self._kernels.sparse_rows_shared(
                act, rowpos, R, wR, total, np.ascontiguousarray(capacities[act]), M, n
            )
            return
        for g, p in zip(act.tolist(), rowpos.tolist()):
            cap = float(capacities[g])
            row = cap * wR
            row /= total
            # Declared capacities may be negative (lies go both ways);
            # enforce_feasibility clips before summing.
            row[row < 0] = 0.0
            M[p] = _feasibility(row, cap, R, n)

    # -- phase 3: credit -----------------------------------------------

    def credit(
        self,
        t: int,
        givers: np.ndarray,
        takers: np.ndarray,
        amounts: np.ndarray,
        rates: np.ndarray,
        weight: float,
        flush: bool,
        want_pending: bool,
    ):
        """Close slot ``t`` for this range's receivers.

        Ledger row ``takers[a]`` (global ids in ``[lo, hi)``, sorted)
        gains ``amounts[r, a] * weight`` at column ``givers[r]`` —
        ``amounts`` is this range's column block of the slot's ``M`` and
        ``rates`` the same columns of its column sums (summed once over
        the whole ``M`` by the caller, so every shard folds identical
        bits).  With deferred feedback the credit buffers until a
        ``flush`` slot.  Returns the pending buffer as ``(receiver,
        giver ids, values)`` triples sorted by receiver when a flush is
        traced (``want_pending``), else ``None``.
        """
        dump = None
        store = self.store
        rows = takers - self.lo
        if self.feedback_interval == 1:
            store.advance_epoch()
            self._scatter(givers, rows, amounts, weight)
        else:
            if givers.size:
                self._accumulate_pending(givers, takers, amounts, weight)
            if flush:
                pending = sorted(self._pending.items())
                if want_pending:
                    dump = [(j, idx.copy(), val.copy()) for j, (idx, val) in pending]
                store.advance_epoch()
                for j, (idx, val) in pending:
                    store.add_compact(j - self.lo, idx, val)
                self._pending.clear()
        for hook in self._slot_end_hooks:
            hook(t)
        if self._metrics is not None:
            self._metrics.fold(
                self._metrics_slot, rows, rates, self._req_row, self._cap_row
            )
            self._metrics_slot += 1
        return dump

    def _scatter(
        self, act: np.ndarray, rows: np.ndarray, M: np.ndarray, weight: float
    ) -> None:
        """Fused feedback credit: ledger row ``rows[a]`` += ``M[:, a] * weight``.

        The native kernel handles receivers whose entry rows already
        contain every active giver (the steady state); cold receivers
        with *no* entries yet (fresh cohorts meeting the givers — the
        dominant case in rotating-cohort scale scenarios) go through the
        store's vectorised ``bulk_insert``; the remaining first-contact
        merges and dense-island rows fall back to the per-row python
        path.  Eviction-enabled stores skip the kernel entirely so every
        write refreshes the per-entry age stamps.
        """
        if not act.size or not rows.size:
            return
        store = self.store
        if self.native and store.evict_age is None:
            ok = np.zeros(rows.size, dtype=np.uint8)
            self._kernels.sparse_scatter(store, act, rows, M, weight, ok)
            miss = np.flatnonzero(ok == 0)
        else:
            miss = np.arange(rows.size)
        if not miss.size:
            return
        P = M[:, miss].T * weight
        rows = rows[miss]
        cold = store.nnz[rows] == 0
        if int(cold.sum()) > 1:
            store.bulk_insert(rows[cold], act, P[cold])
            warm = np.flatnonzero(~cold)
        else:
            warm = np.arange(miss.size)
        for m in warm.tolist():
            store.add_compact(int(rows[m]), act, P[m])

    def _accumulate_pending(
        self, act: np.ndarray, takers: np.ndarray, M: np.ndarray, weight: float
    ) -> None:
        """Defer ``alloc.T * weight`` into per-receiver sparse rows
        (keyed by global receiver id, which orders the traced dump)."""
        P = M.T * weight
        pending = self._pending
        for a, j in enumerate(takers.tolist()):
            ent = pending.get(j)
            if ent is None:
                pending[j] = [act.copy(), P[a].copy()]
                continue
            idx, val = ent
            pos = np.searchsorted(idx, act)
            inb = pos < idx.size
            hit = np.zeros(act.size, dtype=bool)
            hit[inb] = idx[pos[inb]] == act[inb]
            if hit.all():
                val[pos] += P[a]
                continue
            miss = ~hit
            val[pos[hit]] += P[a][hit]
            new_idx = np.concatenate([idx, act[miss]])
            new_val = np.concatenate([val, P[a][miss]])
            order = np.argsort(new_idx, kind="stable")
            ent[0] = np.ascontiguousarray(new_idx[order])
            ent[1] = np.ascontiguousarray(new_val[order])

    # -- streaming metrics ---------------------------------------------

    def begin_metrics(self, slots: int) -> None:
        """Arm a :class:`ClassFold` for a ``slots``-slot run; every
        :meth:`credit` folds its slot until :meth:`end_metrics`."""
        self._metrics = ClassFold(self._class_of, self.classes, slots)
        self._metrics_slot = 0

    def end_metrics(self) -> StreamingMetrics:
        """Disarm and hand over the expanded sums (rows ``[lo, hi)`` of
        the population's; the Jain record stays empty — that needs the
        global rate vector)."""
        fold, self._metrics = self._metrics, None
        return fold.expand()

    # -- inspection ----------------------------------------------------

    def materialize(self) -> np.ndarray:
        """Dense ``(hi - lo, n)`` credit block (tests / small-n interop)."""
        return self.store.materialize()

    def stats(self) -> dict:
        """Bounds, resident bytes (ledger store, ``class_of`` and the
        prefetch tables) and ledger entry accounting."""
        return {
            "lo": self.lo,
            "hi": self.hi,
            "memory_bytes": int(
                self.store.nbytes
                + self._class_of.nbytes
                + self._req_block.nbytes
                + self._cap_block.nbytes
            ),
            "entries": int(self.store.entries),
            "evicted": int(self.store.evicted),
        }

    def peer_states(self) -> list[PeerState]:
        """One :class:`PeerState` per peer of the range, for in-process
        inspection (``sim.peers[i].ledger``): the live dense-island
        states of slow peers, read-only store views for fast ones."""
        slow = {p.index: p for p in self._slow_peers}
        return [
            slow.get(self.lo + i)
            or PeerState(
                self.lo + i,
                cfg,
                self.n,
                self._initial_credit,
                ledger=SparseLedgerView(self.store, i),
            )
            for i, cfg in enumerate(self.configs)
        ]


class LocalShard:
    """``engine="sparse"``: one kernel over ``[0, n)``, called in-process.

    Same phase surface as :class:`~repro.sim.procs.ProcsCoordinator`
    (``sample`` / ``alloc`` / ``credit`` plus metrics and inspection),
    with plain numpy vectors standing in for the transport.
    """

    #: Bytes the transport itself holds (none: there is no transport).
    transport_bytes = 0

    def __init__(self, configs: Sequence[PeerConfig], **kernel_args):
        self.kernel = kernel = ShardKernel(
            configs, 0, len(configs), needs_declared=needs_declared(configs), **kernel_args
        )
        self.native = kernel.native
        self.credit = kernel.credit
        self.begin_metrics = kernel.begin_metrics
        self.credit_matrix = kernel.materialize
        self._vectors = None

    def sample(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        self._vectors = self.kernel.sample(t)
        return self._vectors[:2]

    def alloc(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        return self.kernel.alloc(t, *self._vectors)

    def end_metrics(self) -> list[StreamingMetrics]:
        return [self.kernel.end_metrics()]

    def shard_stats(self) -> list[dict]:
        return [self.kernel.stats()]

    def close(self) -> None:
        pass
