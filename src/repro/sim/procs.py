"""The process-sharded slot engine (``engine="procs"``): W shard
kernels behind pipes.

Peers are partitioned into contiguous shards ``[lo, hi)``; each shard
is one :class:`~repro.sim.shard.ShardKernel` — the same kernel
``engine="sparse"`` calls in-process — living in its own forked worker.
This module is only the transport around those kernels: the
:class:`ProcsCoordinator` that drives the kernel's three phases over
per-worker pipes (the round-trips are the barriers) and the worker
command loop.  Only pickled messages cross the process boundary, and
on a slot they carry the active set, never a per-peer vector:

* each shard's **sample** reply is its requesters ``R_w`` (sorted
  global ids) and, when any peer weighs declared capacities, their
  declared capacities;
* the **alloc** broadcast is the concatenated ``(R, declared_R)`` —
  Equation (2) needs only a peer's own ledger and the request set —
  and each shard answers with its rows ``(act, M)``;
* each **credit** message is one shard's column block of ``M``, its
  takers and its slice of the compact rates (the one cross-shard float
  reduction, summed once by the caller so every shard's metrics fold
  sees identical bits).

A population with dense-island (slow-allocator) peers is the
exception: their ``allocate()`` receives the population's dense
declared vector, so every sample reply then also carries its range's
slice and the alloc broadcast the whole of it.  The dense
``(requesting, capacities)`` of ``step()`` and recorded histories come
from one ``vectors`` command.  No allocation, ledger or metrics
arithmetic lives here, so determinism is the kernel's: contiguous
shards stacked in shard order give the single-kernel row order, and
the engine is **bit-identical** to ``engine="sparse"`` and
``engine="reference"`` (``tests/sim/test_engine_procs.py``).

As an IPC optimisation a worker samples slot ``t+1`` right after
crediting slot ``t`` and returns it with the credit reply, so
steady-state slots cost two round-trips, not three.  Pre-sampling is
safe because blockable sampling is a pure function of the slot index
and per-peer RNG streams are block-keyed; the engine only ever steps
forward.

Workers are forked (POSIX only), so they inherit the already-loaded
native kernels and a private copy-on-write image of the peer configs;
they are daemons and the coordinator kills them on
:meth:`ProcsCoordinator.close` or garbage collection.
"""

from __future__ import annotations

import multiprocessing
import traceback
import weakref

import numpy as np

from . import fastpath
from .shard import ShardKernel, has_islands, needs_declared

__all__ = ["ProcsCoordinator", "worker_count"]


def worker_count(n: int, workers: int | None) -> int:
    """Worker processes for ``n`` peers: ``workers``, by default one per
    usable CPU up to 4 (:func:`~repro.sim.fastpath.thread_count`, so
    ``REPRO_SIM_THREADS=1`` means single-process too); never above ``n``."""
    return min(n, workers if workers is not None else min(4, fastpath.thread_count()))


def _cleanup(procs, conns) -> None:
    """Tear down workers and pipes (idempotent)."""
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


def _concat(parts) -> np.ndarray | None:
    """The shards' parts in shard order; ``None`` when they sent none."""
    return None if parts[0] is None else np.concatenate(parts)


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
        islands = has_islands(configs)
        ctx = multiprocessing.get_context("fork")
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
                    args=(configs, *self._bounds[w : w + 2], kernel_args, islands, child),
                    name=f"repro-sim-shard-{w}",
                    daemon=True,
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
        except BaseException:
            _cleanup(self._procs, self._conns)
            raise
        self._closed = False
        #: The slot the workers last sampled, and their sample replies.
        self._sampled: int | None = None
        self._samples: list = []
        self._finalizer = weakref.finalize(
            self, _cleanup, list(self._procs), list(self._conns)
        )
        # Readiness barrier: every worker acknowledges once its kernel
        # is built, so construction cost lands in the constructor — as
        # it does in-process — and build failures surface immediately
        # as exceptions.
        self._gather()

    # -- plumbing ------------------------------------------------------

    def _call(self, msg) -> list:
        """Send ``msg`` to every worker; their replies, in shard order."""
        if self._closed:
            raise RuntimeError("simulation is closed")
        for conn in self._conns:
            conn.send(msg)
        return self._gather()

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

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _cleanup(self._procs, self._conns)

    # -- the slot phases -----------------------------------------------

    def sample(self, t: int) -> np.ndarray:
        """The population's requesters of slot ``t`` (sorted global ids),
        stacked from the shards' sample replies."""
        if self._sampled != t or self._closed:
            # Only the first slot pays a dedicated sample round-trip (the
            # workers sample ahead after each credit) — and a closed
            # coordinator, whose call raises.
            self._samples = self._call(("sample", t))
            self._sampled = t
        return np.concatenate([R for R, _, _ in self._samples])

    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """The global dense ``(requesting, capacities)`` of the slot just
        sampled — asked before :meth:`credit`, after which the workers
        sample the next slot."""
        requesting, capacities = zip(*self._call(("vectors",)))
        return np.concatenate(requesting), np.concatenate(capacities)

    def alloc(self, t: int, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(act, M)`` over the whole population, shard blocks stacked
        in shard order (globally sorted givers); the broadcast carries
        the declared capacities the sampled shards reported."""
        _, declared_R, declared = zip(*self._samples)
        blocks = self._call(("alloc", t, R, _concat(declared_R), _concat(declared)))
        return (
            np.concatenate([act for act, _ in blocks]),
            np.vstack([M for _, M in blocks]),
        )

    def credit(self, t, act, R, M, rates, weight, flush, want_pending):
        """Route each shard its column block of ``M`` (and the same
        columns of ``rates``); returns the shards' pending dumps in
        global row order when a flush is traced (``want_pending``),
        else ``None``.  The replies carry slot ``t + 1``'s samples."""
        for w, conn in enumerate(self._conns):
            c0, c1 = np.searchsorted(R, self._bounds[w : w + 2]).tolist()
            amounts = np.ascontiguousarray(M[:, c0:c1])
            conn.send(
                ("credit", t, act, R[c0:c1], amounts, rates[c0:c1], weight, flush, want_pending)
            )
        dumps, self._samples = zip(*self._gather())
        self._sampled = t + 1
        if want_pending and flush:
            return [item for dump in dumps for item in dump]
        return None

    # -- streaming metrics ---------------------------------------------

    def begin_metrics(self, slots: int) -> None:
        """Arm the per-shard streaming accumulators for a ``run``."""
        self._call(("begin_metrics", int(slots)))

    def end_metrics(self) -> list:
        """The shards' accumulators, in shard order."""
        return self._call(("end_metrics",))

    # -- inspection ----------------------------------------------------

    def credit_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` snapshot stacked from the shard blocks."""
        return np.vstack(self._call(("materialize",)))

    def shard_stats(self) -> list[dict]:
        """Per-shard accounting (bounds, resident bytes, entry counts)."""
        return self._call(("stats",))


# -- worker side -------------------------------------------------------


def _worker_main(configs, lo, hi, kernel_args, islands: bool, conn) -> None:
    """Worker process entry point: build the shard, serve commands."""
    try:
        kernel = ShardKernel(configs, lo, hi, **kernel_args)

        def sample(t):
            # What the alloc broadcast needs of this range: its
            # requesters, their declared capacities if any peer weighs
            # them, and the dense declared slice if any peer is an island.
            R = kernel.sample(t)
            return (
                R,
                kernel.declared_of(R) if kernel.needs_declared else None,
                kernel.vectors()[2] if islands else None,
            )

        def credit(t, *args):
            return kernel.credit(t, *args), sample(t + 1)

        commands = {
            "sample": sample,
            "alloc": kernel.alloc,
            "credit": credit,
            "vectors": lambda: kernel.vectors()[:2],
            "begin_metrics": kernel.begin_metrics,
            "end_metrics": kernel.end_metrics,
            "materialize": kernel.materialize,
            "stats": kernel.stats,
            "stop": lambda: None,
        }
        conn.send(("ok", None))
        while True:
            cmd, *args = conn.recv()
            if cmd not in commands:
                raise ValueError(f"unknown shard command {cmd!r}")
            conn.send(("ok", commands[cmd](*args)))
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
