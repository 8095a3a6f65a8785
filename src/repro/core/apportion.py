"""Whole-byte grants: the one apportionment rule every slot engine runs.

Equation (2)'s ``C_i[j]`` counts what peer ``i``'s user has received from
``j``, and received data is whole bytes.  The simulator's engines keep it
that way: a slot's grants and the capacities they divide are whole bytes
per second (``kbps * 125``: at the paper's one-second slots, the bytes
the slot carries), and a ledger gains ``floor(grant * slot_seconds)``
bytes.  Integer sums are exact in any order, so every engine, shard
split and thread count produces the same bits without replaying any
float summation order.

Readers keep their float units: a ledger reads ``bytes / 125`` kbps x s
over its float background (the initial credit ``epsilon``, decayed with
the ledger), and rates read ``bytes per second / 125`` kbps.

:func:`apportion` is the rule.  Row ``r`` splits ``budgets[r]`` over
``weights[r]`` by **cumulative floor**: with ``P_j`` the prefix sum of
the weights up to ``j`` and ``W`` their total, entry ``j`` receives
``floor(b * P_j / W) - floor(b * P_{j-1} / W)``.  The grants telescope to
exactly ``b`` whenever ``W > 0``; each is its exact share rounded down or
up, the earlier index taking the odd byte.  The quotient is a double
product, then corrected with exact integer arithmetic, so no entry pays
a 64-bit integer division.  ``_fastalloc.c`` implements the same rule.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BYTES_PER_KBIT",
    "MAX_RATE",
    "apportion",
    "eq2_grants",
    "feasible_grants",
    "rate_bytes",
    "slot_credit",
    "decay",
    "credits_of",
]

#: One kilobit is 125 bytes: a ``kbps`` rate is ``kbps * 125`` bytes a
#: second, and a ledger of ``b`` bytes reads ``b / 125`` kbps x s.
BYTES_PER_KBIT = 125

#: The largest rate, in bytes per second, a capacity, declaration or
#: proposal may carry (about 9 Pbit/s): it keeps the double quotient of
#: :func:`apportion` within one of the exact floor.
MAX_RATE = 1 << 50

_INT64_MAX = np.iinfo(np.int64).max


def rate_bytes(kbps) -> np.ndarray:
    """Whole bytes per second of a ``kbps`` rate: ``floor(kbps * 125)``,
    non-negative; raises :class:`OverflowError` above :data:`MAX_RATE`."""
    out = np.floor(np.maximum(np.asarray(kbps, dtype=np.float64), 0.0) * BYTES_PER_KBIT)
    if not (out <= MAX_RATE).all():
        raise OverflowError(f"a rate above {MAX_RATE} bytes per second (or NaN)")
    return out.astype(np.int64)


def apportion(budgets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Split each row's integer ``budgets[r]`` over the non-negative
    integer ``weights[r]`` by cumulative floor (module docstring).

    A row whose weights total 0 gets nothing.  Raises
    :class:`OverflowError` for a row with positive budget and total
    unless ``budget <= MAX_RATE`` and ``(budget + 1) * total`` fits
    int64 — the bounds that keep every intermediate product exact.
    """
    weights = np.asarray(weights, dtype=np.int64)
    budgets = np.asarray(budgets, dtype=np.int64)
    if not weights.size:
        return np.zeros_like(weights)
    prefix = np.cumsum(weights, axis=1)
    total = prefix[:, -1]
    live = (total > 0) & (budgets > 0)
    capped = np.minimum(budgets, MAX_RATE)
    if (live & ((budgets > MAX_RATE) | (total > _INT64_MAX // (capped + 1)))).any():
        raise OverflowError("ledger total too large for exact apportionment")
    b = np.where(live, budgets, 0)[:, None]
    w = np.where(live, total, 1)[:, None]
    q = (prefix * (b / w)).astype(np.int64)
    rem = prefix * b - q * w
    q -= rem < 0
    q += rem >= w
    return np.diff(q, axis=1, prepend=0)


def eq2_grants(budgets: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Equation (2) over the requesters: row ``r`` splits ``budgets[r]``
    in proportion to its ledger ``counts[r]`` at the requesters.  A row
    holding no byte from any requester is all background, which every
    requester shares equally: it splits by equal weights."""
    weights = np.array(counts, dtype=np.int64)
    if weights.size:
        weights[~weights.any(axis=1)] = 1
    return apportion(budgets, weights)


def feasible_grants(budgets: np.ndarray, proposals: np.ndarray) -> np.ndarray:
    """A float proposal (kbps, over the requesters) as whole bytes per
    second within its row's budget: negatives clip to 0, each entry is
    floored and capped at the budget, and an oversubscribed row is
    apportioned over those bytes."""
    budgets = np.asarray(budgets, dtype=np.int64)
    rows = np.maximum(np.asarray(proposals, dtype=np.float64), 0.0)
    rows *= BYTES_PER_KBIT
    np.floor(rows, out=rows)
    np.minimum(rows, budgets[:, None], out=rows)
    rows = rows.astype(np.int64)
    over = rows.sum(axis=1) > budgets
    if over.any():
        rows[over] = apportion(budgets[over], rows[over])
    return rows


def slot_credit(grants: np.ndarray, slot_seconds: float) -> np.ndarray:
    """The ledger bytes one slot of ``grants`` (bytes per second) carries:
    ``floor(grant * slot_seconds)``, exact for whole-second slots."""
    if slot_seconds == 1.0:
        return grants
    return (grants * slot_seconds).astype(np.int64)


def decay(counts: np.ndarray, forgetting) -> np.ndarray:
    """One flush of forgetting on whole-byte ledgers: ``floor(c * f)``."""
    return (counts * forgetting).astype(np.int64)


def credits_of(counts: np.ndarray, background) -> np.ndarray:
    """The float reading of whole-byte ledgers: ``bytes / 125`` kbps x s
    over the background."""
    out = counts / BYTES_PER_KBIT
    out += background
    return out
