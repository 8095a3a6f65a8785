"""Message types and shared slot vectors for the process-sharded engine.

This module is the **designated message layer** between the procs
coordinator and its shard workers.  Exactly two things cross the
process boundary:

* the four O(n) per-slot vectors — request indicators, realised
  capacities, declared capacities and the compact rate vector — living
  in one :class:`multiprocessing.shared_memory.SharedMemory` segment
  wrapped by :class:`SlotVectors`, and
* pickled messages over per-worker pipes: phase commands and
  :class:`CreditBatch` credit-delta batches (giver ids, taker ids and
  the compact amount block for one shard's receivers).

Every ``SharedMemory`` handle and every ``.buf`` view in the simulator
lives in this file; the ``sim-shared-state`` lint rule flags either
anywhere else under ``repro.sim`` so cross-shard state can only travel
through these explicit channels.

Layout of the shared segment (float64 slabs first so everything stays
8-byte aligned)::

    [0,   8n)  capacities   float64[n]   written by workers (own slice)
    [8n, 16n)  declared     float64[n]   written by workers (own slice)
    [16n,24n)  rates        float64[n]   written by the coordinator
                                         (compact: first |R| cells)
    [24n,25n)  requesting   bool[n]      written by workers (own slice)

Workers only ever write their shard's slice of the worker-owned
vectors and only read the coordinator-owned one, so no cell has two
writers within a phase and the pipe round-trips are the barriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["CreditBatch", "SlotVectors"]


@dataclass
class CreditBatch:
    """One slot's cross-shard credit deltas for one receiving shard.

    Ledger row ``takers[a]`` (global receiver ids owned by the shard,
    sorted) gains ``amounts[r, a] * weight`` at column ``givers[r]``
    (global, sorted) — ``amounts`` is the receiving shard's contiguous
    column block of the slot's compact allocation matrix ``M``: the
    arguments of the owning kernel's credit phase.
    """

    givers: np.ndarray
    takers: np.ndarray
    amounts: np.ndarray
    #: Position of ``takers[0]`` in the slot's request set: the takers'
    #: rates are ``SlotVectors.rates[first : first + len(takers)]``.
    first: int
    weight: float


class SlotVectors:
    """The four O(n) per-slot vectors shared between the processes."""

    #: Segment bytes per peer (three float64 vectors + one bool).
    BYTES_PER_PEER = 25

    def __init__(self, n: int):
        self.n = int(n)
        self._shm = shared_memory.SharedMemory(
            create=True, size=self.BYTES_PER_PEER * self.n
        )
        buf = self._shm.buf
        n = self.n
        self.capacities = np.ndarray((n,), dtype=np.float64, buffer=buf)
        self.declared = np.ndarray((n,), dtype=np.float64, buffer=buf, offset=8 * n)
        self.rates = np.ndarray((n,), dtype=np.float64, buffer=buf, offset=16 * n)
        self.requesting = np.ndarray((n,), dtype=bool, buffer=buf, offset=24 * n)

    @property
    def nbytes(self) -> int:
        return self.BYTES_PER_PEER * self.n

    def close(self) -> None:
        """Drop the array views, the mapping and the segment (called by
        the creating process; forked workers just exit).  Idempotent."""
        if self._shm is None:
            return
        self.capacities = self.declared = self.rates = self.requesting = None
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        self._shm = None
