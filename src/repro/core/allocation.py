"""Bandwidth allocators: the paper's Equation (2) and the allocator API.

Every slot, each peer ``i`` decides how to divide its upload capacity
``mu_i`` among the users currently requesting.  An
:class:`Allocator` receives only information that is locally available
to the peer — its own index and capacity, the request indicator vector
``I(t)`` (a peer trivially observes who is asking it for data), its own
contribution ledger, and the *declared* capacities vector (used only by
the gameable Equation (3) baseline) — and returns the allocation row
``mu_i*(t)``.

The engine treats the returned row as a *proposal*: it is clipped to be
non-negative, zeroed for non-requesters, floored to whole bytes and
apportioned down if it exceeds the peer's physical capacity
(:func:`~repro.core.apportion.feasible_grants`; :func:`enforce_feasibility`
is the same clamp in float kbps).  Equation (2) and (3) rows run in
whole bytes from the start.  Nothing stops a malicious allocator from
giving less, or from skewing shares — that is precisely the adversary
model of Section IV-C, and Theorem 1's guarantee for honest users is
verified against such peers in the benchmark suite.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol, runtime_checkable

import numpy as np

from .ledger import ContributionLedger

__all__ = [
    "Allocator",
    "BatchedAllocator",
    "PeerwiseProportionalAllocator",
    "enforce_feasibility",
    "enforce_feasibility_rows",
]


class Allocator(ABC):
    """Strategy interface for one peer's per-slot upload division."""

    #: Human-readable tag used by metrics and experiment printouts.
    name = "allocator"

    @abstractmethod
    def allocate(
        self,
        index: int,
        capacity: float,
        requesting: np.ndarray,
        ledger: ContributionLedger,
        declared: np.ndarray,
        t: int,
    ) -> np.ndarray:
        """Return the proposed allocation row ``mu_i*(t)`` (length ``n``).

        Parameters
        ----------
        index:
            This peer's index ``i``.
        capacity:
            Physical upload capacity ``mu_i`` available this slot.
        requesting:
            Boolean vector ``I(t)``.
        ledger:
            This peer's local contribution ledger ``C_i``.
        declared:
            Capacities as *declared* by each peer (only the Equation (3)
            baseline trusts these).
        t:
            Slot number (lets adversaries implement time-based strategies).
        """

    def on_slot_end(self, t: int) -> None:
        """Hook for stateful strategies; default is stateless."""


@runtime_checkable
class BatchedAllocator(Protocol):
    """Optional batch protocol the engine's fast path dispatches on.

    An allocator class that can evaluate its rule for *many peers in one
    shot* implements :meth:`allocate_rows`; the simulation engine then
    groups all peers sharing that class into a single call per slot
    instead of ``n`` :meth:`Allocator.allocate` round-trips.  The
    contract is strict:

    * the batch must be **bit-identical** to calling ``allocate`` per
      row (the engine's equivalence suite enforces this for the built-in
      implementations);
    * the rule must be *class-stateless*: any instance of the class must
      produce the same rows, because the engine calls one representative
      instance for the whole group.  Stateful strategies (per-peer RNGs,
      ``on_slot_end`` bookkeeping) should simply not implement the
      protocol — they stay on the per-peer slow path unchanged.
    """

    def allocate_rows(
        self,
        indices: np.ndarray,
        capacities: np.ndarray,
        requesting: np.ndarray,
        ledgers: np.ndarray,
        declared: np.ndarray,
        t: int,
    ) -> np.ndarray:
        """Return the proposal rows for ``indices`` as a matrix.

        ``capacities[r]`` pairs with ``indices[r]``; ``ledgers`` is the
        ``len(indices) x n`` matrix of those peers' credit vectors.  The
        result has one proposal row per index (feasibility is enforced
        by the caller, exactly as for :meth:`Allocator.allocate`).
        """
        ...


def enforce_feasibility(
    proposal: np.ndarray, capacity: float, requesting: np.ndarray
) -> np.ndarray:
    """Clamp an allocation proposal to what the channel can actually carry.

    Negative entries are clipped, non-requesters receive nothing (there
    is no one to send to), and if the row sums beyond the physical
    capacity it is scaled down proportionally.  Allocating *less* than
    capacity is always allowed — that is simply a peer withholding
    bandwidth.
    """
    out = np.asarray(proposal, dtype=float).copy()
    out[out < 0] = 0.0
    out[~np.asarray(requesting, dtype=bool)] = 0.0
    total = out.sum()
    if total > capacity > 0:
        out *= capacity / total
        if out.sum() > capacity:
            # Floating-point rounding (e.g. subnormal capacities) can
            # leave the rescaled sum a few ulps above capacity.
            # Clamping the running sum guarantees sum(out) <= capacity
            # exactly; entries only ever shrink (modulo one ulp).
            out = np.diff(np.minimum(np.cumsum(out), capacity), prepend=0.0)
    elif capacity <= 0:
        out[:] = 0.0
    return out


def enforce_feasibility_rows(
    proposals: np.ndarray, capacities: np.ndarray, requesting: np.ndarray
) -> np.ndarray:
    """Matrix form of :func:`enforce_feasibility`, one proposal per row.

    ``capacities[i]`` pairs with ``proposals[i]``; ``requesting`` is the
    slot's shared indicator vector.  Row ``i`` of the result is
    bit-identical to ``enforce_feasibility(proposals[i], capacities[i],
    requesting)``: row sums use the same pairwise reduction, rows within
    capacity are scaled by exactly ``1.0`` (a bitwise no-op), and the
    rare cumsum-clamp runs per offending row.
    """
    out = np.array(proposals, dtype=float)
    out[out < 0] = 0.0
    req = np.asarray(requesting, dtype=bool)
    out[:, ~req] = 0.0
    caps = np.asarray(capacities, dtype=float)
    totals = out.sum(axis=1)
    over = (totals > caps) & (caps > 0)
    if over.any():
        scales = np.ones(out.shape[0])
        scales[over] = caps[over] / totals[over]
        out *= scales[:, None]
        idx = np.flatnonzero(over)
        resums = out[idx].sum(axis=1)
        for r, s in zip(idx, resums):
            if s > caps[r]:
                out[r] = np.diff(
                    np.minimum(np.cumsum(out[r]), caps[r]), prepend=0.0
                )
    zeroed = caps <= 0
    if zeroed.any():
        out[zeroed] = 0.0
    return out


class PeerwiseProportionalAllocator(Allocator):
    """The paper's proposed rule, Equation (2).

    ``mu_ij(t) = mu_i * I_j(t) * C_i[j] / sum_l I_l(t) C_i[l]``

    The peer shares its *entire* capacity among current requesters in
    proportion to how much each of them has given this peer's user in
    the past.  Self-allocation ``mu_ii`` is included (the crucial
    departure from Yang & de Veciana that removes the non-dominant
    condition, Section II-A); when nobody requests, nothing is sent and
    the capacity is simply unused that slot.
    """

    name = "peerwise-proportional"

    def allocate(
        self,
        index: int,
        capacity: float,
        requesting: np.ndarray,
        ledger: ContributionLedger,
        declared: np.ndarray,
        t: int,
    ) -> np.ndarray:
        requesting = np.asarray(requesting, dtype=bool)
        weights = np.where(requesting, ledger.credits, 0.0)
        total = weights.sum()
        if total <= 0.0:
            return np.zeros(requesting.shape[0])
        # Multiply before dividing: capacity * w stays finite even when
        # total is subnormal, whereas capacity / total can overflow.
        # The batched paths use the same operation order so every
        # engine computes identical bits.
        return capacity * weights / total

    def allocate_rows(
        self,
        indices: np.ndarray,
        capacities: np.ndarray,
        requesting: np.ndarray,
        ledgers: np.ndarray,
        declared: np.ndarray,
        t: int,
    ) -> np.ndarray:
        """Batched Equation (2): all listed peers' rows in one shot.

        ``(ledger_matrix * requesting) / row_sums`` with masked handling
        of all-zero weight rows (they propose nothing, exactly like the
        scalar path's early return).
        """
        req = np.asarray(requesting, dtype=bool)
        weights = np.where(req, ledgers, 0.0)
        totals = weights.sum(axis=1)
        positive = totals > 0.0
        # Same operation order as the scalar path — multiply by the
        # capacity first, then divide — per element, so the bits match.
        weights *= np.asarray(capacities, dtype=float)[:, None]
        out = np.zeros_like(weights)
        np.divide(weights, totals[:, None], out=out, where=positive[:, None])
        return out
