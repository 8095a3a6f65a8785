"""Mean-field dynamics of the Equation (2) credit system.

The allocation rule defines a deterministic recursion on the credit
matrix once demands are replaced by their expectations:

    C[i, j] += E[mu_ji(t)]                     (credits user i holds for j)
    E[mu_ij] = mu_i * gamma_j * C[j, i] / sum_l gamma_l C[l, i]   (approx.)

For *saturated* demands (``gamma = 1``) the expectation is exact — the
engine's dynamics are deterministic — so the trajectory runs the
engine's own whole-byte rule (:func:`~repro.core.apportion.eq2_grants`
over byte ledgers) and reproduces the simulator slot-for-slot, which
the test suite verifies.
For Bernoulli demands it is the standard mean-field/ODE approximation
(exact as the number of peers grows, by the §IV-B concentration
argument), useful for predicting convergence times without simulating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.apportion import BYTES_PER_KBIT, credits_of, decay, eq2_grants, rate_bytes

__all__ = ["MeanFieldTrajectory", "mean_field_trajectory", "predicted_convergence_slot"]


@dataclass(frozen=True)
class MeanFieldTrajectory:
    """Deterministic trajectory of expected rates and credits."""

    rates: np.ndarray  # (T, n) expected download rate of each user
    credits: np.ndarray  # (n, n) final credit matrix, credits[i, j] = C_i[j]

    @property
    def slots(self) -> int:
        return int(self.rates.shape[0])


def mean_field_trajectory(
    capacities,
    gammas,
    slots: int,
    initial_credit: float = 1e-6,
    forgetting: float = 1.0,
) -> MeanFieldTrajectory:
    """Iterate the expected-value recursion of Equation (2).

    ``credits[i, j]`` mirrors the ledger ``C_i[j]``; each slot every
    peer ``i`` splits ``mu_i`` among users ``j`` with weight
    ``gamma_j * credits[i, j]`` (the expected indicator times the
    credit), and the resulting expected allocations are folded back into
    the receivers' credit rows.  With every ``gamma == 1`` the recursion
    is the engine's exact one-second-slot dynamics in whole bytes.
    """
    mu = np.asarray(capacities, dtype=float)
    g = np.asarray(gammas, dtype=float)
    n = mu.shape[0]
    if g.shape != (n,):
        raise ValueError("capacities and gammas must have equal length")
    if slots < 1:
        raise ValueError(f"slots must be positive, got {slots}")
    if not 0.0 < forgetting <= 1.0:
        raise ValueError(f"forgetting must be in (0, 1], got {forgetting}")
    if (g == 1.0).all():
        return _saturated(mu, slots, initial_credit, forgetting)
    return _expected(mu, g, slots, initial_credit, forgetting)


def _expected(mu, g, slots, initial_credit, forgetting) -> MeanFieldTrajectory:
    """The expected-value recursion in float bandwidth units."""
    n = mu.shape[0]
    credits = np.full((n, n), float(initial_credit))
    rates = np.zeros((slots, n))
    for t in range(slots):
        weights = credits * g[None, :]  # peer i's weight toward user j
        totals = weights.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            shares = np.where(totals > 0, weights / totals, 0.0)
        alloc = mu[:, None] * shares  # E[mu_ij(t)]
        rates[t] = alloc.sum(axis=0)
        if forgetting < 1.0:
            credits *= forgetting
        credits += alloc.T  # user j's ledger credits row j with alloc[:, j]
    return MeanFieldTrajectory(rates=rates, credits=credits)


def _saturated(mu, slots, initial_credit, forgetting) -> MeanFieldTrajectory:
    """Every user always requests: each slot every peer apportions its
    capacity over its whole byte ledger row, as the engines do."""
    caps = rate_bytes(mu)
    counts = np.zeros((mu.size, mu.size), dtype=np.int64)
    background = float(initial_credit)
    rates = np.zeros((slots, mu.size))
    for t in range(slots):
        grants = eq2_grants(caps, counts)
        rates[t] = grants.sum(axis=0) / BYTES_PER_KBIT
        if forgetting < 1.0:
            counts = decay(counts, forgetting)
            background *= forgetting
        counts += grants.T
    return MeanFieldTrajectory(rates=rates, credits=credits_of(counts, background))


def predicted_convergence_slot(
    capacities,
    gammas,
    tolerance: float = 0.05,
    max_slots: int = 100_000,
    initial_credit: float = 1e-6,
) -> int | None:
    """First slot at which every expected rate is within ``tolerance`` of
    its fixed point (``mu_i`` in saturation), per the mean-field model.

    Returns ``None`` if the horizon is reached first.  This is how long
    the Fig. 5 transients *should* last, predicted without simulation.
    """
    mu = np.asarray(capacities, dtype=float)
    g = np.asarray(gammas, dtype=float)
    n = mu.shape[0]
    # Estimate the fixed point by running far ahead first.
    tail = _expected(mu, g, 5000, initial_credit, 1.0)
    target = tail.rates[-1]
    credits = np.full((n, n), float(initial_credit))
    for t in range(max_slots):
        weights = credits * g[None, :]
        totals = weights.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            shares = np.where(totals > 0, weights / totals, 0.0)
        alloc = mu[:, None] * shares
        rate = alloc.sum(axis=0)
        ok = np.abs(rate - target) <= tolerance * np.maximum(target, 1e-12)
        if bool(ok.all()):
            return t
        credits += alloc.T
    return None
