"""Local contribution ledgers — the only state Equation (2) needs.

Each peer ``i`` keeps a vector ``C_i[j] = sum_{s<t} mu_ji(s)``: the total
bandwidth its user has *received from* peer ``j`` so far.  The paper
stresses that this is purely local measurement ("the proposed scheme
relies solely on local measurements taken at each peer, and it doesn't
require any transfer of information among the peers"), which is what
makes the rule robust to misreporting.

The ledger also implements the forgetting factor the paper suggests in
Section V-A ("the system has slow dynamics, which could be speeded up by
disproportionately weighing newer contributions over older ones"):
with ``forgetting < 1`` the ledger becomes an exponentially weighted
sum.  The paper's own experiments correspond to ``forgetting = 1.0``.
"""

from __future__ import annotations

import numpy as np

from .apportion import credits_of

__all__ = ["ByteLedger", "ContributionLedger", "DEFAULT_INITIAL_CREDIT"]

#: The "arbitrary small positive initial values" of Equation (2); also
#: what the simulator uses ("we initially allocated a small and equal
#: non-zero contribution between every two peers").
DEFAULT_INITIAL_CREDIT = 1e-6


class ContributionLedger:
    """Cumulative received-bandwidth accounting for one peer.

    Parameters
    ----------
    n:
        Number of peers in the network.
    initial:
        Initial credit toward every peer (must be positive so the first
        allocation round is well defined).
    forgetting:
        Per-slot decay in ``(0, 1]``; ``1.0`` reproduces the paper's
        plain cumulative sum.

    The simulator's engines keep their ledgers as whole bytes instead
    and hand each peer a read-only :class:`ByteLedger` over its row.
    """

    def __init__(
        self,
        n: int,
        initial: float = DEFAULT_INITIAL_CREDIT,
        forgetting: float = 1.0,
    ):
        if n < 1:
            raise ValueError(f"need at least one peer, got {n}")
        if initial <= 0:
            raise ValueError(
                f"initial credit must be positive (Equation (2) divides by the "
                f"credit sum), got {initial}"
            )
        if not 0.0 < forgetting <= 1.0:
            raise ValueError(f"forgetting factor must be in (0, 1], got {forgetting}")
        self.n = n
        self.forgetting = forgetting
        self._credits = np.full(n, float(initial))

    @property
    def credits(self) -> np.ndarray:
        """Read-only view of the current credit vector ``C_i``."""
        view = self._credits.view()
        view.flags.writeable = False
        return view

    def credit_of(self, peer: int) -> float:
        return float(self._credits[peer])

    def record_received(self, received: np.ndarray) -> None:
        """Fold one slot of received bandwidth into the ledger.

        ``received[j]`` is ``mu_ji(t)``, the bandwidth peer ``j`` devoted
        to this peer's user during the slot.  The decay is applied first
        so a slot's own contribution enters at full weight.
        """
        received = np.asarray(received, dtype=float)
        if received.shape != (self.n,):
            raise ValueError(
                f"expected a length-{self.n} vector, got shape {received.shape}"
            )
        if np.any(received < 0):
            raise ValueError("received bandwidth cannot be negative")
        if self.forgetting < 1.0:
            self._credits *= self.forgetting
        self._credits += received

    def record_from(self, peer: int, amount: float) -> None:
        """Record a single pairwise contribution (no decay applied)."""
        if amount < 0:
            raise ValueError("received bandwidth cannot be negative")
        self._credits[peer] += amount

    def total(self) -> float:
        return float(self._credits.sum())

    def share_of(self, peer: int) -> float:
        """Fraction of all recorded credit owed to ``peer``."""
        return float(self._credits[peer] / self._credits.sum())

    def reset(self, initial: float = DEFAULT_INITIAL_CREDIT) -> None:
        self._credits[:] = float(initial)


class ByteLedger:
    """Read-only :class:`ContributionLedger` facade over a slot engine's
    ledger row: whole bytes received per partner (``counts``, owned and
    updated by the engine) read as ``bytes / 125`` kbps x s over the
    row's float background ``background[index]`` — the initial credit,
    decayed with the row."""

    __slots__ = ("_counts", "_background", "index", "forgetting")

    def __init__(self, counts: np.ndarray, background: np.ndarray, index: int, forgetting: float):
        self._counts = counts
        self._background = background
        self.index = int(index)
        self.forgetting = float(forgetting)

    def counts(self) -> np.ndarray:
        """The row's whole-byte counts."""
        return self._counts

    @property
    def n(self) -> int:
        return int(self._counts.shape[0])

    @property
    def credits(self) -> np.ndarray:
        row = credits_of(self.counts(), self._background[self.index])
        row.flags.writeable = False
        return row

    def credit_of(self, peer: int) -> float:
        return float(self.credits[peer])

    def total(self) -> float:
        return float(self.credits.sum())

    def share_of(self, peer: int) -> float:
        credits = self.credits
        return float(credits[peer] / credits.sum())
