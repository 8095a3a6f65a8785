"""The process-sharded slot engine (``engine="procs"``): W shard
kernels behind a transport.

Peers are partitioned into contiguous shards ``[lo, hi)``; each shard
is one :class:`~repro.sim.shard.ShardKernel` — the same kernel
``engine="sparse"`` calls in-process — living in its own forked worker.
This module is only the transport around those kernels: the
:class:`ProcsCoordinator` that drives the kernel's three phases over
per-worker pipes (the round-trips are the barriers), the worker command
loop, and a thin :class:`_ShardWorker` that moves its kernel's arrays
into and out of the shared slot vectors and the credit messages (see
:mod:`repro.sim.shardmsg` for what crosses the boundary).  No
allocation, ledger or metrics arithmetic lives here, so determinism is
the kernel's: contiguous shards stacked in shard order give the
single-kernel row order, and the engine is **bit-identical** to
``engine="sparse"`` and ``engine="reference"``
(``tests/sim/test_engine_procs.py``).

As an IPC optimisation a worker samples slot ``t+1`` right after
crediting slot ``t``, so steady-state slots cost two round-trips, not
three — and the credit gather is the barrier that orders all of it
before the next ``alloc`` broadcast reads the vectors.  Pre-sampling is
safe because blockable sampling is a pure function of the slot index
and per-peer RNG streams are block-keyed; the engine only ever steps
forward.

Workers are forked (POSIX only), so they inherit the already-loaded
native kernels, the shared-memory mapping and a private copy-on-write
image of the peer configs; they are daemons and the coordinator kills
them on :meth:`ProcsCoordinator.close` or garbage collection.
"""

from __future__ import annotations

import multiprocessing
import traceback
import weakref

import numpy as np

from . import fastpath
from .shard import ShardKernel, needs_declared
from .shardmsg import CreditBatch, SlotVectors

__all__ = ["ProcsCoordinator", "worker_count"]


def worker_count(n: int, workers: int | None) -> int:
    """Worker processes for ``n`` peers: ``workers``, by default one per
    usable CPU up to 4 (:func:`~repro.sim.fastpath.thread_count`, so
    ``REPRO_SIM_THREADS=1`` means single-process too); never above ``n``."""
    return min(n, workers if workers is not None else min(4, fastpath.thread_count()))


def _cleanup(procs, conns, vec) -> None:
    """Tear down workers, pipes and the shared segment (idempotent)."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except (OSError, ValueError, BrokenPipeError):
            pass
    for conn in conns:
        try:
            if conn.poll(1.0):
                conn.recv()
        except (OSError, EOFError):
            pass
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    vec.close()


class ProcsCoordinator:
    """Owns the worker processes and drives the per-slot phases.

    Presents the W kernels as one shard over ``[0, n)`` — the phase
    surface :class:`~repro.sim.shard.LocalShard` gives a single
    in-process kernel.
    """

    def __init__(
        self,
        configs,
        seed: int,
        initial_credit: float,
        feedback_interval: int,
        workers: int,
    ):
        n = len(configs)
        self.workers = int(workers)
        # Load (and self-check) the kernels before forking: children
        # inherit the mapped shared object and the memoised handle.
        self.native = fastpath.load() is not None
        kernel_args = dict(
            seed=seed,
            initial_credit=initial_credit,
            feedback_interval=feedback_interval,
            needs_declared=needs_declared(configs),
        )
        ctx = multiprocessing.get_context("fork")
        self.vec = SlotVectors(n)
        self._bounds = [(w * n) // self.workers for w in range(self.workers + 1)]
        self._conns = []
        self._procs = []
        try:
            for w in range(self.workers):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    # Forked, so nothing here is pickled: the child builds
                    # its kernel from its own copy-on-write configs.
                    args=(configs, *self._bounds[w : w + 2], kernel_args, self.vec, child),
                    name=f"repro-sim-shard-{w}",
                    daemon=True,
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
        except BaseException:
            _cleanup(self._procs, self._conns, self.vec)
            raise
        self._closed = False
        self._sampled: int | None = None
        self._finalizer = weakref.finalize(
            self, _cleanup, list(self._procs), list(self._conns), self.vec
        )
        # Readiness barrier: every worker acknowledges once its kernel
        # is built, so construction cost lands in the constructor — as
        # it does in-process — and build failures surface immediately
        # as exceptions.
        self._gather()

    # -- plumbing ------------------------------------------------------

    def _broadcast(self, msg) -> None:
        if self._closed:
            raise RuntimeError("simulation is closed")
        for conn in self._conns:
            conn.send(msg)

    def _gather(self) -> list:
        """Every worker's reply payload to the last command, in shard
        order (workers answer ``("ok", payload)`` or ``("error",
        traceback)``)."""
        payloads = []
        for w, conn in enumerate(self._conns):
            try:
                status, payload = conn.recv()
            except EOFError:
                self.close()
                raise RuntimeError(
                    f"simulation shard worker {w} died unexpectedly"
                ) from None
            if status == "error":
                self.close()
                raise RuntimeError(
                    f"simulation shard worker {w} failed:\n{payload}"
                )
            payloads.append(payload)
        return payloads

    @property
    def transport_bytes(self) -> int:
        """Bytes the transport itself holds: the shared slot vectors."""
        return self.vec.nbytes

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _cleanup(self._procs, self._conns, self.vec)

    # -- the slot phases -----------------------------------------------

    def sample(self, t: int) -> np.ndarray:
        """The population's requesters of slot ``t`` (sorted global ids),
        read off the shared request vector."""
        if self._sampled != t or self._closed:
            # Only the first slot pays a dedicated sample round-trip (the
            # workers sample ahead after each credit) — and a closed
            # coordinator, whose broadcast raises.
            self._broadcast(("sample", t))
            self._gather()
        return np.flatnonzero(self.vec.requesting).astype(np.int64, copy=False)

    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the global ``(requesting, capacities)`` of the slot
        just sampled — read before :meth:`credit`, after which the
        workers sample the next slot into the same vectors."""
        return np.array(self.vec.requesting), np.array(self.vec.capacities)

    def alloc(self, t: int, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(act, M)`` over the whole population, shard blocks stacked
        in shard order (globally sorted givers); each worker reads ``R``
        off the shared request vector itself."""
        self._broadcast(("alloc", t))
        blocks = self._gather()
        return (
            np.concatenate([act for act, _ in blocks]),
            np.vstack([M for _, M in blocks]),
        )

    def credit(self, t, act, R, M, rates, weight, flush, want_pending):
        """Route each shard its column block of ``M``; returns the
        shards' pending dumps in global row order when a flush is
        traced (``want_pending``), else ``None``."""
        # Compact per-requester rates — the one cross-shard float
        # reduction, summed once by the caller and published here so
        # every shard's metrics fold sees identical bits.
        self.vec.rates[: R.size] = rates
        for w, conn in enumerate(self._conns):
            c0, c1 = np.searchsorted(R, self._bounds[w : w + 2]).tolist()
            batch = CreditBatch(
                givers=act,
                takers=R[c0:c1],
                amounts=np.ascontiguousarray(M[:, c0:c1]),
                first=c0,
                weight=weight,
            )
            conn.send(("credit", t, flush, want_pending, batch))
        self._sampled = t + 1
        dumps = self._gather()
        if want_pending and flush:
            return [item for dump in dumps for item in dump]
        return None

    # -- streaming metrics ---------------------------------------------

    def begin_metrics(self, slots: int) -> None:
        """Arm the per-shard streaming accumulators for a ``run``."""
        self._broadcast(("begin_metrics", int(slots)))
        self._gather()

    def end_metrics(self) -> list:
        """The shards' accumulators, in shard order."""
        self._broadcast(("end_metrics",))
        return self._gather()

    # -- inspection ----------------------------------------------------

    def credit_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` snapshot stacked from the shard blocks."""
        self._broadcast(("materialize",))
        return np.vstack(self._gather())

    def shard_stats(self) -> list[dict]:
        """Per-shard accounting (bounds, resident bytes, entry counts)."""
        self._broadcast(("stats",))
        return self._gather()


# -- worker side -------------------------------------------------------


def _worker_main(configs, lo, hi, kernel_args, vec: SlotVectors, conn) -> None:
    """Worker process entry point: build the shard, serve commands."""
    try:
        kernel = ShardKernel(configs, lo, hi, **kernel_args)
        shard = _ShardWorker(kernel, vec)
        conn.send(("ok", None))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            out = None
            if cmd == "sample":
                shard.sample(msg[1])
            elif cmd == "alloc":
                out = shard.alloc(msg[1])
            elif cmd == "credit":
                out = shard.credit(*msg[1:])
                shard.sample(msg[1] + 1)
            elif cmd == "begin_metrics":
                kernel.begin_metrics(msg[1])
            elif cmd == "end_metrics":
                out = kernel.end_metrics()
            elif cmd == "materialize":
                out = kernel.materialize()
            elif cmd == "stats":
                out = kernel.stats()
            elif cmd != "stop":
                raise ValueError(f"unknown shard command {cmd!r}")
            conn.send(("ok", out))
            if cmd == "stop":
                return
    except EOFError:
        pass
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError, BrokenPipeError):
            pass
    finally:
        conn.close()


class _ShardWorker:
    """One kernel's adapter to the transport (runs inside the worker):
    its slot vectors go into this shard's slice of the shared ones, and
    the shared ones answer for the population when the kernel
    allocates (its ``slot`` argument)."""

    def __init__(self, kernel: ShardKernel, vec: SlotVectors):
        self.kernel = kernel
        self.vec = vec

    def sample(self, t: int) -> None:
        self.kernel.sample(t)
        requesting, capacities, declared = self.kernel.vectors()
        lo, hi = self.kernel.lo, self.kernel.hi
        self.vec.requesting[lo:hi] = requesting
        self.vec.capacities[lo:hi] = capacities
        if declared is not None:
            self.vec.declared[lo:hi] = declared

    def alloc(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        R = np.flatnonzero(self.vec.requesting).astype(np.int64, copy=False)
        return self.kernel.alloc(t, R, self)

    def declared_of(self, R: np.ndarray) -> np.ndarray:
        return self.vec.declared[R]

    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        vec = self.vec
        return (
            np.array(vec.requesting),
            np.array(vec.capacities),
            np.array(vec.declared) if self.kernel.needs_declared else None,
        )

    def credit(self, t: int, flush: bool, want_pending: bool, batch: CreditBatch):
        b = batch
        rates = np.array(self.vec.rates[b.first : b.first + b.takers.size])
        return self.kernel.credit(
            t, b.givers, b.takers, b.amounts, rates, b.weight, flush, want_pending
        )
