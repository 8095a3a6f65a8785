"""Baseline allocation rules the paper compares against or motivates from.

* :class:`GlobalProportionalAllocator` — Equation (3), the *global
  proportional fairness* scheme after Yang & de Veciana [16], with the
  paper's self-contribution extension.  It trusts the **declared**
  capacity vector, which Section IV-B shows creates a strong incentive
  to over-declare (``d/d mu_j`` of the allocated share is positive).
* :class:`IsolationAllocator` — no sharing at all: each peer serves only
  its own user.  This is the ``gamma_i mu_i`` single-user reference the
  incentive results are measured against.
* :class:`EqualSplitAllocator` — credit-blind uniform division among
  requesters; a naive cooperative baseline useful in ablations to show
  that fairness (proportionality to contribution) needs the ledger.
"""

from __future__ import annotations

import numpy as np

from .allocation import Allocator
from .ledger import ContributionLedger

__all__ = [
    "GlobalProportionalAllocator",
    "IsolationAllocator",
    "EqualSplitAllocator",
]


class GlobalProportionalAllocator(Allocator):
    """Equation (3): share proportionally to *declared* upload capacities.

    ``mu_ij(t) = mu_i * I_j(t) * mu_j^decl / sum_l I_l(t) mu_l^decl``

    The rule needs each peer's overall contribution, which is not
    locally measurable — so implementations must trust declarations,
    and a liar gains (the drawback that motivates Equation (2)).
    """

    name = "global-proportional"

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
        weights = np.where(requesting, np.asarray(declared, dtype=float), 0.0)
        total = weights.sum()
        if total <= 0.0:
            return np.zeros(requesting.shape[0])
        # Multiply before dividing (overflow-safe for subnormal totals)
        # — the exact operation order the batched engine paths use.
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
        """Batched Equation (3): one shared weight row for every peer.

        All peers trust the same declared-capacity vector, so the batch
        is an outer product of the per-peer capacities with the masked
        declarations, divided by the shared total (in the scalar path's
        multiply-then-divide order, so the bits match).
        """
        req = np.asarray(requesting, dtype=bool)
        weights = np.where(req, np.asarray(declared, dtype=float), 0.0)
        total = weights.sum()
        caps = np.asarray(capacities, dtype=float)
        if total <= 0.0:
            return np.zeros((caps.shape[0], req.shape[0]))
        return caps[:, None] * weights[None, :] / total


class IsolationAllocator(Allocator):
    """No cooperation: upload only to the peer's own user.

    Reproduces the paper's "operates in isolation" reference point with
    download speed ``mu_i`` per request and long-term utilisation
    ``gamma_i mu_i``.
    """

    name = "isolation"

    def allocate(
        self,
        index: int,
        capacity: float,
        requesting: np.ndarray,
        ledger: ContributionLedger,
        declared: np.ndarray,
        t: int,
    ) -> np.ndarray:
        out = np.zeros(np.asarray(requesting).shape[0])
        if requesting[index]:
            out[index] = capacity
        return out

    def allocate_rows(
        self,
        indices: np.ndarray,
        capacities: np.ndarray,
        requesting: np.ndarray,
        ledgers: np.ndarray,
        declared: np.ndarray,
        t: int,
    ) -> np.ndarray:
        """Batched isolation: row ``r`` holds ``capacities[r]`` at column
        ``indices[r]`` when that peer's own user requests, else nothing."""
        req = np.asarray(requesting, dtype=bool)
        idx = np.asarray(indices, dtype=np.intp)
        out = np.zeros((idx.shape[0], req.shape[0]))
        own = req[idx]
        out[np.flatnonzero(own), idx[own]] = np.asarray(capacities, dtype=float)[own]
        return out


class EqualSplitAllocator(Allocator):
    """Uniform division among current requesters, ignoring history."""

    name = "equal-split"

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
        count = int(requesting.sum())
        out = np.zeros(requesting.shape[0])
        if count:
            out[requesting] = capacity / count
        return out

    def allocate_rows(
        self,
        indices: np.ndarray,
        capacities: np.ndarray,
        requesting: np.ndarray,
        ledgers: np.ndarray,
        declared: np.ndarray,
        t: int,
    ) -> np.ndarray:
        """Batched equal split: each row's ``capacity / count`` (the
        scalar path's one division) in every requester's column."""
        req = np.asarray(requesting, dtype=bool)
        caps = np.asarray(capacities, dtype=float)
        count = int(req.sum())
        out = np.zeros((caps.shape[0], req.shape[0]))
        if count:
            out[:, req] = (caps / count)[:, None]
        return out
