"""Peer configuration and runtime state for the time-slotted simulator."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.allocation import Allocator, PeerwiseProportionalAllocator
from ..core.ledger import DEFAULT_INITIAL_CREDIT, ContributionLedger
from .capacity import CapacityProfile, as_capacity
from .demand import DemandProcess, as_demand

__all__ = ["PeerConfig", "PeerState"]


@dataclass
class PeerConfig:
    """Everything that defines one peer/user pair in a scenario.

    Attributes
    ----------
    capacity:
        Upload capacity profile (kbps), or a plain number.
    demand:
        The user's request process; a float is a Bernoulli ``gamma``,
        ``True`` a saturated user.
    allocator:
        The peer's allocation strategy (honest Equation (2) by default;
        adversaries plug in here).
    declared_capacity:
        What the peer *claims* its capacity is — only the Equation (3)
        baseline consults this; ``None`` means truthful.
    forgetting:
        Ledger forgetting factor (1.0 = the paper's cumulative ledger).
    label:
        Optional display name for reports.
    """

    capacity: CapacityProfile | float
    demand: DemandProcess | float | bool
    allocator: Allocator = field(default_factory=PeerwiseProportionalAllocator)
    declared_capacity: float | None = None
    forgetting: float = 1.0
    label: str | None = None

    def __post_init__(self):
        self.capacity = as_capacity(self.capacity)
        self.demand = as_demand(self.demand)


class PeerState:
    """Runtime state the engine keeps per peer.

    The engines pass the peer's ``ledger`` — a read-only
    :class:`~repro.core.ledger.ByteLedger` over their whole-byte ledger
    row; without one the peer gets a float
    :class:`~repro.core.ledger.ContributionLedger` of its own.
    ``__slots__`` keeps the per-peer footprint flat at the 10^5-10^6
    peer populations the sparse engine targets.
    """

    __slots__ = ("index", "config", "ledger")

    def __init__(
        self,
        index: int,
        config: PeerConfig,
        n: int,
        initial_credit: float,
        ledger=None,
    ):
        self.index = index
        self.config = config
        self.ledger = ledger if ledger is not None else ContributionLedger(
            n,
            initial=initial_credit if initial_credit > 0 else DEFAULT_INITIAL_CREDIT,
            forgetting=config.forgetting,
        )

    def capacity_at(self, t: int) -> float:
        return self.config.capacity.value(t)

    def declared_at(self, t: int) -> float:
        if self.config.declared_capacity is not None:
            return float(self.config.declared_capacity)
        return self.capacity_at(t)

    @property
    def label(self) -> str:
        return self.config.label or f"peer {self.index}"
