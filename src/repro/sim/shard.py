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
   range's rows of the compact grant matrix ``M`` (active givers x
   requesters, whole bytes per second): Equation (2)/(3) by the
   apportionment rule, through the native kernels when available.  The
   active givers are the members of the positive-capacity classes,
   their capacities the class rows': a function of the class capacity
   row alone, so a **giver plan** (ids, store rows, places in ``M``,
   capacities in bytes) is built when that row changes and reused while
   it does not;
3. :meth:`~ShardKernel.credit` — given the range's column block of
   ``M``, the ledger credit (or its deferral), the allocators' slot-end
   hooks and the metrics fold.

None of the three touches a per-peer vector: a slot costs O(classes +
|R| + givers x |R|).  Nor, on ``sim_sparse``'s slots, does it build an
index array or convert one for the kernels: the member arrays, the
plan's arrays and ``M``'s storage are bound once (``native.Bound``), a
one-cell slot's requesters are views of the member arrays at an offset,
and ``alloc`` / ``credit`` recognise the ``R``, ``act`` and ``M`` they
handed out and pass them bound.

The ledger store (and the deferred-feedback buffer) keeps its rows in
member-table order — sampling class, then allocator kind, then id — not
in id order, so a slot's requesters are one run of rows per requesting
class however their ids interleave (``sim_sparse``'s cohort ``i mod
64`` has its members 64 ids apart).  :meth:`~ShardKernel.sample` hands
the rows to :meth:`~ShardKernel.credit` with the slot; ids cross the
API, and :meth:`~ShardKernel.materialize` and
:meth:`~ShardKernel.peer_states` map rows back to ids for inspection.
``class_of`` and the ``history="none"`` sums stay in id order: mapping
the sums to id order at the end of a run would cost more than their
contiguous fold saves.  Those sums are the run's own: each
``begin_metrics`` arms a :class:`ClassFold` over fresh arrays, and a
simulation spanned by one kernel returns them as they are.  The dense
request / capacity / declared vectors
are built from the class rows only on demand (:meth:`~ShardKernel.vectors`)
— for dense-island peers, ``Simulation.step()`` and recorded histories.

Who moves the arrays between kernels is not the kernel's business:
``engine="sparse"`` is one kernel over ``[0, n)`` called in-process
(:class:`LocalShard`), ``engine="procs"`` is W kernels in forked
workers that exchange them as pipe messages (:mod:`repro.sim.procs`).
Grants and ledgers are whole bytes (:mod:`repro.core.apportion`), so
every sum is exact in any order and any contiguous split yields the
reference loop's bits — ``tests/sim/test_shard_kernel.py`` holds that
property without a transport in the way.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .. import native
from ..core.allocation import Allocator, PeerwiseProportionalAllocator
from ..core.apportion import (
    BYTES_PER_KBIT,
    apportion,
    eq2_grants,
    feasible_grants,
    rate_bytes,
    slot_credit,
)
from ..core.baselines import GlobalProportionalAllocator
from ..core.ledger import DEFAULT_INITIAL_CREDIT, ByteLedger
from ..obs import REGISTRY as _OBS
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
from .sparse import SparseLedgers, SparseLedgerView

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

_EQ2_ROWS = _OBS.counter("repro.sim.eq2_rows", "Equation (2) giver rows allocated")
_EQ2_ROWS_COPIED = _OBS.counter("repro.sim.eq2_rows_copied", "of those, cold rows copied")

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
    """The compact rates in kbps: the column sums of the grant block
    ``M`` (whole bytes per second, exact in any order) over 125."""
    return M.sum(axis=0) / BYTES_PER_KBIT


def numpy_eq2_rows(store: SparseLedgers, rows, rowpos, R, caps, M) -> None:
    """Equation (2) in numpy: ``M[rowpos[r]]`` is store row ``rows[r]``'s
    grants of ``caps[r]`` bytes per second over ``R`` — the fallback of
    the native ``sparse_rows_eq2`` and its oracle."""
    if len(rows):
        counts = np.stack([store.row_at(i, R) for i in rows.tolist()])
        M[rowpos] = eq2_grants(caps, counts)


def _columns(size: int, groups: list[np.ndarray], solo: np.ndarray) -> np.ndarray:
    """Per-row column ids: group ``g``'s rows share column ``g``, and
    each ``solo`` row gets a column of its own after them (one
    vectorised store per group, none per peer)."""
    col = np.empty(size, dtype=np.int64)
    for g, rows in enumerate(groups):
        col[rows] = g
    col[solo] = len(groups) + np.arange(solo.size)
    return col


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: kept across slots, and handed to the
    engine, which must not write it."""
    array.flags.writeable = False
    return array


def _bound(array: np.ndarray) -> native.Bound:
    """``array`` made read-only and bound."""
    return native.Bound(_frozen(array))


class _GiverPlan:
    """The active eq2 / eq3 givers of one class capacity row: the
    members of its positive-capacity classes, in the shape
    :meth:`ShardKernel.alloc` passes them to the kernels.

    ``act2`` / ``act3`` are the eq2 / eq3 givers' sorted global ids and
    ``kbps2`` / ``kbps3`` their capacities (the class row's); ``rows2``
    are the eq2 givers' store rows, ``act`` both sets merged in id
    order, ``rowpos2`` / ``rowpos3`` each giver's row of ``M`` (its
    place in ``act``) and ``caps2`` / ``caps3`` the capacities in whole
    bytes per second.  Every array is read-only; the ones the kernels
    read are bound.  ``key`` is the capacity row's bytes.
    """

    __slots__ = (
        "key", "act2", "act3", "kbps2", "kbps3", "rows2", "act", "rowpos2",
        "rowpos3", "caps2", "caps3",
    )

    def __init__(self, kernel: "ShardKernel", key: bytes):
        cap_row = kernel._cap_row
        classes = np.flatnonzero(cap_row > 0.0) * _KINDS
        (act2, self.rows2, local2), (act3, _, local3) = (
            kernel._gather(classes + kind) for kind in (_EQ2, _EQ3)
        )
        self.key = key
        self.act2, self.act3 = act2.array, act3.array
        self.kbps2, self.kbps3 = (
            _frozen(cap_row[kernel._class_of[local.array]]) for local in (local2, local3)
        )
        cat = np.concatenate([self.act2, self.act3])
        order = np.argsort(cat, kind="stable")
        rowpos = np.empty(cat.size, dtype=np.int64)
        rowpos[order] = np.arange(cat.size, dtype=np.int64)
        self.act = _bound(cat[order])
        self.rowpos2 = _bound(rowpos[: self.act2.size])
        self.rowpos3 = _bound(rowpos[self.act2.size :])
        self.caps2, self.caps3 = _bound(rate_bytes(self.kbps2)), _bound(rate_bytes(self.kbps3))


#: The per-peer sums :class:`ClassFold` folds per class and expands whole.
_CLASS_SUMS = ("request_count", "capacity_sum", "isolation_sum")


class ClassFold:
    """One shard's ``history="none"`` sums, folded per sampling class.

    ``request_count``, ``capacity_sum`` and ``isolation_sum`` read only
    a peer's request indicator and capacity, which are equal across a
    sampling class by construction; so they are summed once per class
    per slot, in O(classes), and expanded through ``class_of`` at the
    end, over per-peer arrays allocated and never zeroed (the expansion
    writes them whole).  Every member of a class receives the sequence
    of IEEE additions it would have received alone, so the expansion is
    exact.  The rate sums are per peer and touch only the slot's
    requesters: one pass of the native ``rate_fold`` over ``R`` when
    ``kernels`` are live (the per-run arrays bound once), else three
    numpy scatter-adds.  Each fold owns fresh arrays: the
    :class:`StreamingMetrics` it hands over is its run's to keep.
    """

    def __init__(self, class_of: np.ndarray, classes: int, slots: int, kernels=None):
        self.class_of = class_of
        self.sums = sums = StreamingMetrics(class_of.size, slots, blank=_CLASS_SUMS)
        self.request_count = np.zeros(classes, dtype=np.int64)
        self.capacity_sum = np.zeros(classes)
        self.isolation_sum = np.zeros(classes)
        self._kernels = kernels
        if kernels is not None:
            self._bound = [
                native.Bound(a)
                for a in (class_of, sums.rate_sum, sums.gain_sum, sums.window_rate_sum)
            ]

    def fold(
        self,
        s: int,
        R: np.ndarray,
        rates_c: np.ndarray,
        req_c: np.ndarray,
        cap_c: np.ndarray,
    ) -> None:
        """Fold slot ``s``: ``R`` the requesters' shard-local ids (sorted;
        bound or not), ``rates_c`` their rates, ``req_c`` / ``cap_c`` the
        slot's request indicator and capacity per class.  Zero cells
        outside ``R`` are exact no-ops in every rate sum."""
        sums = self.sums
        if R.size and self._kernels is not None:
            self._kernels.rate_fold(
                *self._bound, R, rates_c, cap_c, s >= sums.window_start
            )
        elif R.size:
            R = native.array_of(R)
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
        for name in _CLASS_SUMS:
            # class_of is in range, so "clip" clips nothing; it spares
            # the copy numpy makes of `out` under the default "raise".
            getattr(self, name).take(self.class_of, out=getattr(sums, name), mode="clip")
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
    eq2 / eq3 members of its positive-capacity classes (kept as a giver
    plan while the class capacity row stays the same), so sampling and
    selection read class rows, never a per-peer vector.  A peer's
    position in the member table is its **row** in the ledger store and
    the deferred-feedback buffer, so a cell's members are one run of
    rows; ``class_of``, the declared overrides and the metrics fold are
    indexed by shard-local id.  Every giver/taker/column index crossing
    the API is global (ledger columns are global ids), and
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
        slow: list[int] = []
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
                slow.append(i)
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
        #: Shard-local id -> sampling class.
        self._class_of = class_of = class_of.astype(np.intp, copy=False)
        self.classes = int(class_of.max(initial=-1)) + 1
        # Each group writes the columns of its classes; each solo peer
        # is a class of its own: (local id, class) pairs.
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
        # Member table: local ids sorted by cell = class * _KINDS + kind
        # (stable, so ascending within a cell); cell c's members are
        # _members[_cells[c] : _cells[c + 1]], as int64 local ids.  A
        # member's position in the table is its row in the ledger store
        # and the feedback buffer, so a cell's members are one run of rows.
        kind = np.full(hi - lo, _SLOW, dtype=np.intp)
        kind[eq2] = _EQ2
        kind[eq3] = _EQ3
        cell = class_of * _KINDS + kind
        self._members = np.argsort(cell, kind="stable").astype(np.int64, copy=False)
        self._cells = np.zeros(self.classes * _KINDS + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(cell, minlength=self.classes * _KINDS), out=self._cells[1:]
        )
        # The members' local ids, global ids and rows, read-only and bound
        # once: a one-cell slot's requesters (and a one-class giver set)
        # are views of them at an offset, so no slot builds an index array
        # or converts one.
        self._local = _bound(self._members)
        self._ids = self._local if lo == 0 else _bound(self._members + lo)
        self._rows = _bound(np.arange(hi - lo, dtype=np.int64))
        row_of = self._row_of()
        self.store = SparseLedgers(
            n,
            initial_credit if initial_credit > 0 else DEFAULT_INITIAL_CREDIT,
            np.array([c.forgetting for c in configs])[self._members],
            rows=hi - lo,
        )
        #: Dense-island peers, by id; their ledgers are dense store rows.
        self._slow_peers: list[PeerState] = []
        for i in slow:
            row = int(row_of[i])
            ledger = ByteLedger(
                self.store.dense_row(row), self.store.background, row, configs[i].forgetting
            )
            self._slow_peers.append(PeerState(lo + i, configs[i], n, initial_credit, ledger=ledger))
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
        #: Every slot sampled and not yet credited: its class rows, its
        #: requesters' rows and the same rows and local ids as bound.
        self._uncredited: dict[int, tuple] = {}
        #: The requesters the last sample returned, as bound.
        self._sampled: native.Bound | None = None
        #: That slot's dense vectors, once :meth:`vectors` built them.
        self._dense = None
        #: The giver plan of the last class capacity row alloc met.
        self._plan: _GiverPlan | None = None
        #: Storage of the slot's compact grant block M (see alloc), grown
        #: to the largest seen; scratch, so stats() does not count it.
        self._m_store = native.Bound(np.empty(0, dtype=np.int64))
        #: What the last alloc returned, ``(act, M)``, as bound.
        self._granted: tuple[native.Bound, native.Bound] | None = None
        #: The native scatter's per-requester verdicts (a slot's
        #: requesters are rows of this range), bound once.
        self._ok = native.Bound(np.empty(hi - lo, dtype=np.uint8))
        #: Deferred feedback (feedback_interval > 1): the credit since
        #: the last flush, in a store of its own with no forgetting, so
        #: it accumulates through the same merge.
        self._buffer = (
            SparseLedgers(n, 0.0, np.ones(hi - lo), rows=hi - lo)
            if feedback_interval > 1
            else None
        )
        self._metrics: ClassFold | None = None
        self._metrics_slot = 0

    # -- phase 1: sampling ---------------------------------------------

    def _refresh_blocks(self, t: int) -> None:
        """Pre-sample the next time block into new tables (an uncredited
        slot's rows stay intact): one call per group, written into the
        columns of the group's classes."""
        self._block_start = t
        block = self._block
        self._req_block = np.empty_like(self._req_block)
        self._cap_block = np.empty_like(self._cap_block)
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
        R, rows, local = self._gather((classes[:, None] * _KINDS + np.arange(_KINDS)).ravel())
        self._uncredited[t] = req_row, cap_row, rows.array, rows, local
        self._sampled = R
        return R.array

    def _gather(self, cells: np.ndarray) -> tuple[native.Bound, native.Bound, native.Bound]:
        """The members of ``cells`` (ascending cell ids), bound: their
        sorted global ids, their rows and their local ids in the same
        order.  One nonempty cell is one run of rows, views of the bound
        member arrays; several are gathered and put in id order by one
        sort, and bound here."""
        starts = self._cells[cells]
        lens = self._cells[cells + 1] - starts
        full = np.flatnonzero(lens)
        if full.size <= 1:
            start = int(starts[full[0]]) if full.size else 0
            stop = start + (int(lens[full[0]]) if full.size else 0)
            return (
                self._ids.view(start, stop),
                self._rows.view(start, stop),
                self._local.view(start, stop),
            )
        starts, lens = starts[full], lens[full]
        ends = np.cumsum(lens)
        rows = np.repeat(starts - ends + lens, lens) + np.arange(ends[-1])
        local = self._members[rows]
        order = local.argsort(kind="stable")
        local, rows = _bound(local[order]), _bound(rows[order])
        return _bound(local.array + self.lo) if self.lo else local, rows, local

    def _giver_plan(self) -> _GiverPlan:
        """The giver plan of the slot last sampled.  The active givers
        and their capacities are a function of the class capacity row
        alone, so the plan last built serves while the row is the one it
        was built from: one comparison of ``classes`` entries a slot."""
        key = self._cap_row.tobytes()
        if self._plan is None or self._plan.key != key:
            self._plan = _GiverPlan(self, key)
        return self._plan

    def active_givers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``((act2, caps2), (act3, caps3))`` of the slot last sampled:
        the eq2 and eq3 members of its positive-capacity classes (sorted
        global ids) and their capacities, read from the class row (the
        giver plan's arrays, read-only)."""
        plan = self._giver_plan()
        return (plan.act2, plan.kbps2), (plan.act3, plan.kbps3)

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
        """This range's rows of the compact grant matrix.

        ``R`` is the *population's* requesters (sorted global ids),
        ``declared_R`` their declared capacities (read when an eq3 giver
        is active) and ``declared`` the population's dense declared
        vector (read when the range has dense-island peers, whose
        ``allocate()`` receives it).  A kernel spanning the population
        reads both off its own class rows when they are omitted; under
        ``procs`` they arrive with the alloc message.  Returns ``(act,
        M)`` with ``act`` the range's givers with nonzero rows this slot
        (global ids, sorted) and ``M[r, a]`` the grant, in whole bytes
        per second, from ``act[r]`` to ``R[a]`` — the nonzero block of
        the dense grant matrix's rows ``[lo, hi)``.  ``M`` is valid
        until the next call, which reuses its storage.

        The eq2 / eq3 givers come from the giver plan (built when the
        class capacity row changes); dense-island givers allocate every
        slot and are merged into the plan's order.  ``R`` as
        :meth:`sample` returned it, and the plan's arrays, cross to the
        kernels bound.
        """
        A = R.size
        empty = np.empty(0, dtype=np.int64)
        sampled = self._sampled
        Rb = sampled if sampled is not None and R is sampled.array else R
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
                row = feasible_grants(rate_bytes([cap]), proposal[R][None])[0]
                if row.any():
                    slow_pairs.append((i, row))
        if not A:
            return empty, np.empty((0, 0), dtype=np.int64)
        plan = self._giver_plan()
        act, rowpos2, rowpos3 = plan.act, plan.rowpos2, plan.rowpos3
        nact = act.size + len(slow_pairs)
        if not nact:
            return empty, np.empty((0, A), dtype=np.int64)
        # M lives in storage kept across slots: at n = 10^5 (16 givers x
        # ~1562 requesters) it is ~195 KiB, past glibc's initial 128 KiB
        # mmap threshold, so a fresh np.empty was mapped and faulted in
        # anew each slot.  Valid until the next alloc: step(), the
        # streaming run and the procs reply copy or reduce it in the slot.
        if self._m_store.size < nact * A:
            self._m_store = native.Bound(np.empty(nact * A, dtype=np.int64))
        M = native.Bound(
            self._m_store.array[: nact * A].reshape(nact, A), self._m_store.address
        )
        if slow_pairs:
            # M is kept sorted by giver, as the dense matrix's rows are:
            # each plan row moves down past the slow givers before it.
            slow_act = np.asarray([i for i, _ in slow_pairs], dtype=np.int64)
            pos = np.searchsorted(slow_act, act.array) + np.arange(act.size)
            slow_pos = np.searchsorted(act.array, slow_act) + np.arange(slow_act.size)
            merged = np.empty(nact, dtype=np.int64)
            merged[pos] = act.array
            merged[slow_pos] = slow_act
            act = native.Bound(merged)
            rowpos2, rowpos3 = pos[rowpos2.array], pos[rowpos3.array]
            for (_, row), p in zip(slow_pairs, slow_pos.tolist()):
                M.array[p] = row
        self._eq2_block(plan.rows2, rowpos2, Rb, plan.caps2, M)
        if plan.act3.size:
            if declared_R is None:
                declared_R = self.declared_of(R)
            self._eq3_block(rowpos3, declared_R, plan.caps3, M)
        self._granted = act, M
        return act.array, M.array

    def _eq2_block(self, rows, rowpos, R, caps, M) -> None:
        """Equation (2) grants of the active eq2 givers at store
        ``rows`` (capacities ``caps``, whole bytes per second) over the
        global ids ``R`` into ``M[rowpos[r]]``; any argument may come
        bound."""
        if not rows.size:
            return
        copied = 0
        if self.native:
            copied = self._kernels.sparse_rows_eq2(self.store, rows, rowpos, R, caps, M)
        else:
            numpy_eq2_rows(self.store, *map(native.array_of, (rows, rowpos, R, caps, M)))
        if _OBS.enabled:
            _EQ2_ROWS.inc(rows.size)
            _EQ2_ROWS_COPIED.inc(copied)

    def _eq3_block(self, rowpos, declared_R, caps, M) -> None:
        """Equation (3) grants of the active eq3 givers (capacities
        ``caps``, whole bytes per second): every row apportions over one
        shared weight vector, the declared capacities ``declared_R``
        (kbps) at ``R``."""
        wR = rate_bytes(declared_R)
        if self.native:
            self._kernels.rows_shared(rowpos, wR, caps, M)
        else:
            caps = native.array_of(caps)
            M.array[native.array_of(rowpos)] = apportion(
                caps, np.broadcast_to(wR, (caps.size, wR.size))
            )

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
    ) -> None:
        """Close slot ``t`` for this range's receivers.

        The ledger of ``takers[a]`` — the global ids :meth:`sample`
        returned for slot ``t``, credited at the rows that sample kept —
        gains ``slot_credit(amounts[r, a], weight)`` bytes at column
        ``givers[r]``; ``amounts`` is this range's column block of the
        slot's ``M`` and ``rates`` the same columns of its
        :func:`column_sums`.  With deferred feedback the credit buffers
        until a ``flush`` slot.  ``givers`` and ``amounts`` as the last
        :meth:`alloc` returned them cross to the kernels bound.
        """
        store = self.store
        req_row, cap_row, _, rows, local = self._uncredited.pop(t)
        if takers.size != rows.size:
            raise ValueError(f"slot {t} sampled {rows.size} requesters here, got {takers.size}")
        if self._granted is not None:
            act, M = self._granted
            givers = act if givers is act.array else givers
            amounts = M if amounts is M.array else amounts
        if self._buffer is None:
            store.advance_epoch()
            self._scatter(store, givers, rows, amounts, weight)
        else:
            self._scatter(self._buffer, givers, rows, amounts, weight)
            if flush:
                store.advance_epoch()
                for i, idx, val in self._buffer.drain():
                    store.add_compact(i, idx, val)
        for hook in self._slot_end_hooks:
            hook(t)
        if self._metrics is not None:
            self._metrics.fold(self._metrics_slot, local, rates, req_row, cap_row)
            self._metrics_slot += 1

    def _scatter(
        self,
        store: SparseLedgers,
        act: np.ndarray,
        rows: np.ndarray,
        M: np.ndarray,
        weight: float,
    ) -> None:
        """Fused feedback credit: ``store`` row ``rows[a]`` +=
        ``slot_credit(M[:, a], weight)`` — the ledger store itself, or
        the deferred-feedback buffer.  ``act``, ``rows`` and ``M`` may
        come bound.

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
            self._kernels.sparse_scatter(store, act, rows, M, weight, self._ok)
            miss = np.flatnonzero(self._ok.array[: rows.size] == 0)
        else:
            miss = np.arange(rows.size)
        if not miss.size:
            return
        act, rows, M = map(native.array_of, (act, rows, M))
        P = slot_credit(M[:, miss].T, weight)
        rows = rows[miss]
        cold = store.nnz[rows] == 0
        store.bulk_insert(rows[cold], act, P[cold])
        for m in np.flatnonzero(~cold).tolist():
            store.add_compact(int(rows[m]), act, P[m])

    # -- streaming metrics ---------------------------------------------

    def begin_metrics(self, slots: int) -> None:
        """Arm a :class:`ClassFold` for a ``slots``-slot run; every
        :meth:`credit` folds its slot until :meth:`end_metrics`."""
        self._metrics = ClassFold(self._class_of, self.classes, slots, self._kernels)
        self._metrics_slot = 0

    def end_metrics(self) -> StreamingMetrics:
        """Disarm and hand over the expanded sums (rows ``[lo, hi)`` of
        the population's; the Jain record stays empty — that needs the
        global rate vector)."""
        fold, self._metrics = self._metrics, None
        return fold.expand()

    # -- inspection ----------------------------------------------------

    def _by_id(self, a: np.ndarray) -> np.ndarray:
        """``a``, indexed by row along its first axis, in id order."""
        out = np.empty_like(a)
        out[self._members] = a
        return out

    def _row_of(self) -> np.ndarray:
        """Local id -> row: the member table inverted (built on demand,
        for inspection; the slot phases never map ids to rows)."""
        return self._by_id(np.arange(self._members.size, dtype=np.intp))

    def materialize(self) -> np.ndarray:
        """Dense ``(hi - lo, n)`` ledger bytes in id order (tests /
        small-n interop)."""
        return self._by_id(self.store.materialize())

    def stats(self) -> dict:
        """Bounds, resident bytes (ledger store, ``class_of``, the member
        table with its rows and global ids, and the prefetch tables) and
        ledger entry accounting."""
        return {
            "lo": self.lo,
            "hi": self.hi,
            "memory_bytes": int(
                self.store.nbytes
                + self._class_of.nbytes
                + self._members.nbytes
                + self._rows.array.nbytes
                + (self._ids.array.nbytes if self.lo else 0)
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
                ledger=SparseLedgerView(self.store, row),
            )
            for i, (cfg, row) in enumerate(zip(self.configs, self._row_of().tolist()))
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
