"""The paper's primary contribution: fair bandwidth allocation.

* :class:`~repro.core.allocation.PeerwiseProportionalAllocator` — the
  proposed rule (Equation 2), driven purely by each peer's local
  :class:`~repro.core.ledger.ContributionLedger`;
* :mod:`~repro.core.apportion` — the whole-byte apportionment rule the
  simulator's engines run Equations (2) and (3) through;
* :mod:`~repro.core.baselines` — Equation (3) global proportional
  fairness, isolation, equal split;
* :mod:`~repro.core.adversary` — the malicious strategies of the threat
  model (free riders, hoarders, coalitions, ...);
* :mod:`~repro.core.fairness` / :mod:`~repro.core.theory` — metrics and
  numeric forms of Theorem 1 / Corollary 1 for asserting the paper's
  claims against measured simulations.
"""

from .adversary import (
    ColluderAllocator,
    FreeRiderAllocator,
    RandomAllocator,
    SelfHoarderAllocator,
    WithholdingAllocator,
)
from .allocation import Allocator, PeerwiseProportionalAllocator, enforce_feasibility
from .baselines import (
    EqualSplitAllocator,
    GlobalProportionalAllocator,
    IsolationAllocator,
)
from .fairness import (
    convergence_time,
    cooperation_gain,
    jain_index,
    max_pairwise_gap,
    normalized_exchange_ratio,
    pairwise_asymmetry,
    running_average,
)
from .ledger import DEFAULT_INITIAL_CREDIT, ContributionLedger
from .quantize import QuantizedAllocator, quantize_shares
from .theory import (
    Theorem1Report,
    check_theorem1,
    corollary1_gap,
    denominator_gaussian_stats,
    eq6_lower_bound,
    overdeclaration_gradient,
    theorem1_alpha,
    theorem1_bound,
    theorem1_bound_eq12,
)

__all__ = [
    "Allocator",
    "PeerwiseProportionalAllocator",
    "enforce_feasibility",
    "ContributionLedger",
    "DEFAULT_INITIAL_CREDIT",
    "GlobalProportionalAllocator",
    "IsolationAllocator",
    "EqualSplitAllocator",
    "FreeRiderAllocator",
    "SelfHoarderAllocator",
    "ColluderAllocator",
    "WithholdingAllocator",
    "RandomAllocator",
    "QuantizedAllocator",
    "quantize_shares",
    "jain_index",
    "pairwise_asymmetry",
    "max_pairwise_gap",
    "normalized_exchange_ratio",
    "convergence_time",
    "cooperation_gain",
    "running_average",
    "theorem1_alpha",
    "theorem1_bound",
    "theorem1_bound_eq12",
    "Theorem1Report",
    "check_theorem1",
    "corollary1_gap",
    "eq6_lower_bound",
    "overdeclaration_gradient",
    "denominator_gaussian_stats",
]
