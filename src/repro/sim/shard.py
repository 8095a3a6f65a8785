"""The shard kernel: one contiguous peer range of the sparse slot engine.

Equation (2) is local by construction — peer ``i``'s row needs only its
own ledger ``C_i[.]`` and the slot's request/capacity vectors — so a
contiguous peer range ``[lo, hi)`` of an ``n``-peer population is a
self-contained unit of work.  :class:`ShardKernel` is that unit, and the
only implementation of the large-``n`` slot step: it owns the range's
ledger rows, sampling plans, deferred feedback and streaming sums, and
runs a slot as three array-in/array-out phases over the *active set*:

1. :meth:`~ShardKernel.sample` — the range's requesters ``R`` (sorted
   global ids), gathered from the members of the slot's requesting
   sampling classes;
2. :meth:`~ShardKernel.alloc` — given the population's ``R``, the
   range's rows of the compact allocation matrix ``M`` (active givers x
   requesters): Equation (2)/(3) plus feasibility, through the native
   kernels when available.  The active givers are the members of the
   positive-capacity classes, their capacities the class rows';
3. :meth:`~ShardKernel.credit` — given the range's column block of
   ``M``, the ledger credit (or its deferral), the allocators' slot-end
   hooks and the metrics fold.

None of the three touches a per-peer vector: a slot costs O(classes +
|R| + givers x |R|).  The dense request / capacity / declared vectors
are built from the class rows only on demand (:meth:`~ShardKernel.vectors`)
— for dense-island peers, ``Simulation.step()`` and recorded histories.

Who moves the arrays between kernels is not the kernel's business:
``engine="sparse"`` is one kernel over ``[0, n)`` called in-process
(:class:`LocalShard`), ``engine="procs"`` is W kernels in forked
workers that exchange them as pipe messages (:mod:`repro.sim.procs`).
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
    "ShardKernel", "LocalShard", "ClassFold", "FAST_ALLOCATORS", "needs_declared",
    "has_islands", "column_sums",
]

#: The allocators the kernel evaluates in closed form from the store;
#: any other allocator's peer is a dense island.
FAST_ALLOCATORS = (PeerwiseProportionalAllocator, GlobalProportionalAllocator)

#: Slots of demand/capacity pre-sampled per blockable peer at a time.
TIME_BLOCK = 256

#: Allocator kinds, the minor key of the member table: closed-form
#: Equation (2) rows, closed-form Equation (3) rows, dense islands.
_EQ2, _EQ3, _SLOW = 0, 1, 2
_KINDS = 3

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


def has_islands(configs: Sequence[PeerConfig]) -> bool:
    """Whether any peer runs a dense-island allocator (neither Equation
    (2) nor (3)) — a *global* property too: an island's ``allocate()``
    receives the population's dense declared vector."""
    return any(type(c.allocator) not in FAST_ALLOCATORS for c in configs)


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
    :class:`~repro.sim.peer.PeerState` per slow-path peer), the member
    table, the per-class demand/capacity prefetch tables, the
    deferred-feedback buffer and, during a ``history="none"`` run, a
    :class:`ClassFold`.  Each peer belongs to one **sampling class**
    (``class_of``): peers of a class share their deterministic demand
    group and their capacity group, so they request and contribute
    alike every slot; an rng-drawn or slot-sampled peer is a class of
    its own.  The **member table** is the inverse of ``class_of``: the
    range's rows grouped by class and, within a class, by allocator
    kind (eq2, eq3, slow), ascending within each group — one CSR table
    whose cells are ``(class, kind)`` pairs.  A slot's requesters are
    the members of its requesting classes and its active givers the
    eq2 / eq3 members of its positive-capacity classes, so sampling and
    selection read class rows, never a per-peer vector.  Row indices
    into the store, ``class_of`` and the member table are shard-local;
    every giver/taker/column index crossing the API is global, and
    per-peer RNG streams are seeded by global index, so the split never
    changes a draw.  ``needs_declared`` is the population-wide
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
        needs_declared: bool,
    ):
        n = len(configs)
        configs = configs[lo:hi]
        self.lo = lo
        self.hi = hi
        self.n = n
        self.configs = configs
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
                eq2.append(i)
            elif cls is GlobalProportionalAllocator:
                eq3.append(i)
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
        # Member table: rows sorted by cell = class * _KINDS + kind
        # (stable, so ascending within a cell); cell c's members are
        # _members[_cells[c] : _cells[c + 1]], as int32 local rows.
        kind = np.full(hi - lo, _SLOW, dtype=np.intp)
        kind[eq2] = _EQ2
        kind[eq3] = _EQ3
        cell = self._class_of * _KINDS + kind
        self._members = np.argsort(cell, kind="stable").astype(np.int32)
        self._cells = np.zeros(self.classes * _KINDS + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(cell, minlength=self.classes * _KINDS), out=self._cells[1:]
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
        #: That slot's dense vectors, once :meth:`vectors` built them.
        self._dense = None
        #: Deferred feedback (feedback_interval > 1): the credit since
        #: the last flush, in a store of its own with zero background
        #: and no forgetting, so it accumulates through the same merge.
        self._buffer = (
            SparseLedgers(n, 0.0, np.ones(hi - lo), rows=hi - lo)
            if feedback_interval > 1
            else None
        )
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

    def sample(self, t: int) -> np.ndarray:
        """This range's requesters of slot ``t``: sorted global ids, the
        members of the slot's requesting classes."""
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
        self._dense = None
        classes = np.flatnonzero(req_row)
        return self._gather((classes[:, None] * _KINDS + np.arange(_KINDS)).ravel())

    def _gather(self, cells: np.ndarray) -> np.ndarray:
        """The members of ``cells`` (ascending cell ids) as sorted
        global ids: a slice when one cell is nonempty, else a gather of
        the cells' ranges and one sort of the result."""
        starts = self._cells[cells]
        lens = self._cells[cells + 1] - starts
        full = np.flatnonzero(lens)
        if full.size <= 1:
            start = int(starts[full[0]]) if full.size else 0
            stop = start + (int(lens[full[0]]) if full.size else 0)
            rows = self._members[start:stop]
        else:
            starts, lens = starts[full], lens[full]
            ends = np.cumsum(lens)
            rows = self._members[np.repeat(starts - ends + lens, lens) + np.arange(ends[-1])]
            rows.sort()
        return np.add(rows, self.lo, dtype=np.int64)

    def active_givers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``((act2, caps2), (act3, caps3))`` of the slot last sampled:
        the eq2 and eq3 members of its positive-capacity classes (sorted
        global ids) and their capacities, read from the class row."""
        classes = np.flatnonzero(self._cap_row > 0.0) * _KINDS
        out = []
        for kind in (_EQ2, _EQ3):
            act = self._gather(classes + kind)
            out.append((act, self._cap_row[self._class_of[act - self.lo]]))
        return tuple(out)

    def declared_of(self, R: np.ndarray) -> np.ndarray:
        """Declared capacities of the slot last sampled at global ids
        ``R`` (sorted, within the range): the class row's capacities
        with the per-peer overrides applied."""
        local = R - self.lo
        declared = self._cap_row[self._class_of[local]]
        idx = self._declared_idx
        if idx.size and local.size:
            pos = np.minimum(np.searchsorted(idx, local), idx.size - 1)
            hit = idx[pos] == local
            declared[hit] = self._declared_vals[pos[hit]]
        return declared

    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """This range's dense ``(requesting, capacities, declared)`` of
        the slot last sampled, spread from the class rows on first call
        (``declared`` is ``None`` unless the population needs it)."""
        if self._dense is None:
            requesting = self._req_row.take(self._class_of)
            capacities = self._cap_row.take(self._class_of)
            declared = None
            if self.needs_declared:
                declared = capacities.copy()
                if self._declared_idx.size:
                    declared[self._declared_idx] = self._declared_vals
            self._dense = requesting, capacities, declared
        return self._dense

    # -- phase 2: allocation -------------------------------------------

    def alloc(
        self,
        t: int,
        R: np.ndarray,
        declared_R: np.ndarray | None = None,
        declared: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """This range's rows of the compact allocation matrix.

        ``R`` is the *population's* requesters (sorted global ids),
        ``declared_R`` their declared capacities (read when an eq3 giver
        is active) and ``declared`` the population's dense declared
        vector (read when the range has dense-island peers, whose
        ``allocate()`` receives it).  A kernel spanning the population
        reads both off its own class rows when they are omitted; under
        ``procs`` they arrive with the alloc message.  Returns ``(act,
        M)`` with ``act`` the range's givers with nonzero rows this slot
        (global ids, sorted) and ``M[r, a]`` the allocation from ``act[r]`` to
        ``R[a]`` — the nonzero block of the dense allocation matrix's
        rows ``[lo, hi)``.
        """
        A = R.size
        empty = np.empty(0, dtype=np.int64)
        if A:
            (act2, caps2), (act3, caps3) = self.active_givers()
        else:
            act2 = act3 = empty
        # Slow rows run the untouched per-peer path every slot (their
        # allocators may be stateful), compacted onto the active set.
        slow_pairs: list[tuple[int, np.ndarray]] = []
        if self._slow_peers:
            requesting = np.zeros(self.n, dtype=bool)
            requesting[R] = True
            if declared is None:
                declared = self.vectors()[2]
        for peer in self._slow_peers:
            i = peer.index
            cap = self._cap_row[self._class_of[i - self.lo]]
            proposal = peer.config.allocator.allocate(
                i, cap, requesting, peer.ledger, declared, t
            )
            if A:
                row = enforce_feasibility(proposal, cap, requesting)
                if row.any():
                    slow_pairs.append((i, row[R]))
        nact = act2.size + act3.size + len(slow_pairs)
        if not (A and nact):
            return empty, np.empty((0, A))
        slow_act = np.asarray([i for i, _ in slow_pairs], dtype=np.int64)
        cat = np.concatenate([act2, act3, slow_act])
        order = np.argsort(cat, kind="stable")
        act = np.ascontiguousarray(cat[order])
        # Output row position of each source row: rates sum columns
        # over rows in ascending global order, so M is kept sorted.
        rowpos = np.empty(nact, dtype=np.int64)
        rowpos[order] = np.arange(nact, dtype=np.int64)
        M = np.empty((nact, A))
        self._eq2_block(act2, rowpos[: act2.size], R, caps2, M)
        n23 = act2.size + act3.size
        if act3.size:
            if declared_R is None:
                declared_R = self.declared_of(R)
            self._eq3_block(act3, rowpos[act2.size : n23], R, declared_R, caps3, M)
        for (_, row), p in zip(slow_pairs, rowpos[n23:]):
            M[p] = row
        return act, M

    def _eq2_block(self, act, rowpos, R, caps, M) -> None:
        """Equation (2) + feasibility for the active eq2 givers ``act``
        (capacities ``caps``).

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
            self._kernels.sparse_rows_eq2(store, local, rowpos, R, caps, M)
            return
        n = self.n
        for i, cap, p in zip(local.tolist(), caps.tolist(), rowpos.tolist()):
            w = store.row_at(i, R)
            total = sparse_pairwise(R, w, n)
            if total <= 0.0:
                M[p] = 0.0
                continue
            row = cap * w
            row /= total
            M[p] = _feasibility(row, cap, R, n)

    def _eq3_block(self, act, rowpos, R, wR, caps, M) -> None:
        """Equation (3) + feasibility for the active eq3 givers (one
        shared weight vector ``wR``, the declared capacities at ``R``,
        and one total for the whole group)."""
        n = self.n
        total = sparse_pairwise(R, wR, n)
        if total <= 0.0:
            M[rowpos] = 0.0
            return
        if self.native:
            self._kernels.sparse_rows_shared(act, rowpos, R, wR, total, caps, M, n)
            return
        for cap, p in zip(caps.tolist(), rowpos.tolist()):
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
        if self._buffer is None:
            store.advance_epoch()
            self._scatter(store, givers, rows, amounts, weight)
        else:
            self._scatter(self._buffer, givers, rows, amounts, weight)
            if flush:
                pending = self._buffer.drain()
                if want_pending:
                    dump = [(self.lo + i, idx, val) for i, idx, val in pending]
                store.advance_epoch()
                for i, idx, val in pending:
                    store.add_compact(i, idx, val)
        for hook in self._slot_end_hooks:
            hook(t)
        if self._metrics is not None:
            self._metrics.fold(
                self._metrics_slot, rows, rates, self._req_row, self._cap_row
            )
            self._metrics_slot += 1
        return dump

    def _scatter(
        self,
        store: SparseLedgers,
        act: np.ndarray,
        rows: np.ndarray,
        M: np.ndarray,
        weight: float,
    ) -> None:
        """Fused feedback credit: ``store`` row ``rows[a]`` +=
        ``M[:, a] * weight`` — the ledger store itself, or the
        deferred-feedback buffer.

        The native kernel handles receivers whose entry rows already
        contain every active giver (the steady state); cold receivers
        with *no* entries yet (fresh cohorts meeting the givers — the
        dominant case in rotating-cohort scale scenarios) go through the
        store's vectorised ``bulk_insert``; the remaining first-contact
        merges and dense-island rows go through ``add_compact``.
        """
        if not act.size or not rows.size:
            return
        if self.native:
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
        store.bulk_insert(rows[cold], act, P[cold])
        for m in np.flatnonzero(~cold).tolist():
            store.add_compact(int(rows[m]), act, P[m])

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
        """Bounds, resident bytes (ledger store, ``class_of``, the member
        table and the prefetch tables) and ledger entry accounting."""
        return {
            "lo": self.lo,
            "hi": self.hi,
            "memory_bytes": int(
                self.store.nbytes
                + self._class_of.nbytes
                + self._members.nbytes
                + self._cells.nbytes
                + self._req_block.nbytes
                + self._cap_block.nbytes
            ),
            "entries": int(self.store.entries),
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
    (``sample`` / ``alloc`` / ``credit`` / ``vectors`` plus metrics and
    inspection); the kernel spans the population, so its ``alloc``
    reads the declared capacities off its own class rows.
    """

    def __init__(self, configs: Sequence[PeerConfig], **kernel_args):
        self.kernel = kernel = ShardKernel(
            configs, 0, len(configs), needs_declared=needs_declared(configs), **kernel_args
        )
        self.native = kernel.native
        self.sample = kernel.sample
        self.alloc = kernel.alloc
        self.credit = kernel.credit
        self.begin_metrics = kernel.begin_metrics
        self.credit_matrix = kernel.materialize

    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        return self.kernel.vectors()[:2]

    def end_metrics(self) -> list[StreamingMetrics]:
        return [self.kernel.end_metrics()]

    def shard_stats(self) -> list[dict]:
        return [self.kernel.stats()]

    def close(self) -> None:
        pass
