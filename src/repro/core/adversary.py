"""Adversarial allocation strategies (the threat model of Section IV-C).

Theorem 1's incentive guarantee for an honest user "holds under the mere
assumption that this user requests downloads independently of the
remaining users ... No matter what strategy they apply" — including
coalitions.  These allocators implement the strategies the evaluation
exercises; none of them can push an honest user below its isolation
bandwidth, and the benchmark suite checks exactly that.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .allocation import Allocator, PeerwiseProportionalAllocator
from .baselines import IsolationAllocator

__all__ = [
    "FreeRiderAllocator",
    "SelfHoarderAllocator",
    "ColluderAllocator",
    "WithholdingAllocator",
    "RandomAllocator",
]


class FreeRiderAllocator(Allocator):
    """Contributes nothing to anyone, ever — pure leeching.

    Under Equation (2), honest peers' ledgers hold only the initial
    epsilon credit for a free rider, so its user is starved of shared
    bandwidth while honest users are unaffected.
    """

    name = "free-rider"

    def allocate(self, index, capacity, requesting, ledger, declared, t):
        return np.zeros(np.asarray(requesting).shape[0])

    def allocate_rows(self, indices, capacities, requesting, ledgers, declared, t):
        """Batched: a zero row for every listed peer."""
        return np.zeros((np.asarray(indices).shape[0], np.asarray(requesting).shape[0]))


class SelfHoarderAllocator(IsolationAllocator):
    """Uploads only to its own user; never shares with others.

    Slightly less antisocial than the free rider: it still uses its link
    for itself.  The rule is isolation's, run inside the network, so the
    class only renames :class:`~repro.core.baselines.IsolationAllocator`.
    """

    name = "self-hoarder"


class ColluderAllocator(Allocator):
    """A coalition member: divides capacity only among coalition users.

    Inside the coalition, shares follow the honest Equation (2) weights
    restricted to members (the strongest coordinated strategy that still
    uses local information).  Section IV-C argues the Theorem 1 bound
    for non-members survives any such coalition.
    """

    name = "colluder"

    def __init__(self, coalition: Sequence[int]):
        if not coalition:
            raise ValueError("a coalition needs at least one member")
        self.coalition = frozenset(int(i) for i in coalition)

    def allocate(self, index, capacity, requesting, ledger, declared, t):
        requesting = np.asarray(requesting, dtype=bool)
        n = requesting.shape[0]
        member = np.zeros(n, dtype=bool)
        member[list(self.coalition)] = True
        weights = np.where(requesting & member, ledger.credits, 0.0)
        total = weights.sum()
        out = np.zeros(n)
        if total > 0.0:
            out = capacity * weights / total
        return out


class WithholdingAllocator(Allocator):
    """Follows Equation (2) but only offers a fraction of its capacity.

    Models a peer that rate-limits its altruism; used in ablations to
    show the received share degrades proportionally (fairness working
    as intended rather than a cliff).
    """

    name = "withholding"

    def __init__(self, fraction: float):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self.fraction = fraction
        self._honest = PeerwiseProportionalAllocator()

    def allocate(self, index, capacity, requesting, ledger, declared, t):
        return self._honest.allocate(
            index, capacity * self.fraction, requesting, ledger, declared, t
        )


class RandomAllocator(Allocator):
    """Splats capacity across requesters uniformly at random each slot.

    A chaotic-but-not-hostile strategy: it neither targets anyone nor
    follows the rule.  Useful for showing Theorem 1 is indifferent to
    *how* others deviate.
    """

    name = "random"

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def allocate(self, index, capacity, requesting, ledger, declared, t):
        requesting = np.asarray(requesting, dtype=bool)
        out = np.zeros(requesting.shape[0])
        if requesting.any():
            weights = self._rng.random(requesting.shape[0]) * requesting
            total = weights.sum()
            if total > 0:
                out = capacity * weights / total
        return out
