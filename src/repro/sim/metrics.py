"""Simulation outputs and derived measurements.

:class:`SimulationResult` carries everything the figures and theory
checks need: the ``(T, n)`` user download-rate matrix, the request
indicators, realised capacities, and the time-average allocation matrix
``mean_alloc[i, j] = (1/T) sum_t mu_ij(t)`` (the ``mu_bar_ij`` of
Section IV-C).

Large-population runs (``Simulation.run(history="none")``) omit those
records: ``mean_alloc`` and the per-slot arrays are ``None``, replaced
by a :attr:`summary` of O(n) running sums.  Every derived
measurement either degrades to the summary or raises a ``ValueError``
naming the history mode it needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.fairness import cooperation_gain, jain_index, running_average

__all__ = ["SimulationResult", "StreamingMetrics"]


#: The per-peer accumulator arrays of :class:`StreamingMetrics`.
_PEER_SUMS = (
    "rate_sum",
    "request_count",
    "capacity_sum",
    "isolation_sum",
    "gain_sum",
    "window_rate_sum",
)


class StreamingMetrics:
    """O(n) per-slot accumulators for ``history="none"`` runs.

    Replaces the ``(T, n)`` per-slot records with running sums chosen so
    every report quantity comes out **bit-identical** to the
    full-history computation: per-slot accumulation reproduces numpy's
    slot-sequential ``axis=0`` reductions exactly, the per-slot Jain
    trajectory is recorded as the engine computes it, the masked gain
    sum mirrors :func:`~repro.core.fairness.cooperation_gain`, and the
    report's final rate window (``max(1, slots // 10)`` trailing slots)
    is pre-registered at run start.  The sparse engines fold one per
    shard kernel (:class:`~repro.sim.shard.ClassFold`); a run spanned by
    one kernel returns that kernel's sums as they are, and several
    kernels' are merged by :meth:`place`.  Only the Jain record needs
    the global rate vector and is appended on the simulation side.
    """

    def __init__(self, n: int, slots: int, blank: tuple[str, ...] = ()):
        """``blank`` names sums left unzeroed, for a caller that writes
        them whole before they are read."""
        self.n = int(n)
        self.slots = int(slots)
        self.window_slots = max(1, self.slots // 10)
        self.window_start = self.slots - self.window_slots
        for name in _PEER_SUMS:
            dtype = np.int64 if name == "request_count" else np.float64
            setattr(self, name, (np.empty if name in blank else np.zeros)(self.n, dtype))
        self.jain: list[float] = []

    def update_dense(
        self, s: int, rates_t: np.ndarray, req: np.ndarray, caps: np.ndarray
    ) -> None:
        """Fold one slot from dense vectors (``rates_t = alloc.sum(axis=0)``)."""
        self.rate_sum += rates_t
        self.request_count += req
        self.capacity_sum += caps
        self.isolation_sum += np.where(req, caps, 0.0)
        self.gain_sum += np.where(req, rates_t - caps, 0.0)
        if s >= self.window_start:
            self.window_rate_sum += rates_t
        self.jain.append(
            jain_index(rates_t[req]) if bool(req.any()) else 1.0
        )

    def place(self, lo: int, shard: "StreamingMetrics") -> None:
        """Adopt a shard's sums as rows ``[lo, lo + shard.n)`` — shards
        are disjoint contiguous ranges, so merging is exact placement,
        not summation."""
        hi = lo + shard.n
        for name in _PEER_SUMS:
            getattr(self, name)[lo:hi] = getattr(shard, name)

    def summary(self) -> dict:
        """The :attr:`SimulationResult.summary` dict for this run."""
        return {
            "slots": self.slots,
            "n": self.n,
            **{name: getattr(self, name) for name in _PEER_SUMS},
            "window_slots": self.window_slots,
            "jain": self.jain,
        }


@dataclass(frozen=True)
class SimulationResult:
    """Immutable record of one simulation run.

    Attributes
    ----------
    rates:
        ``(T, n)`` — download rate (kbps) each user enjoyed per slot
        (``None`` under ``history="none"``).
    requesting:
        ``(T, n)`` boolean — the request indicators ``I(t)``
        (``None`` under ``history="none"``).
    capacities:
        ``(T, n)`` — realised upload capacities ``mu_i(t)``
        (``None`` under ``history="none"``).
    mean_alloc:
        ``(n, n)`` — time-average of ``mu_ij(t)`` with ``[from, to]``
        indexing (peer ``i`` to user ``j``); ``None`` under
        ``history="none"``.
    slot_seconds:
        Wall-clock duration one slot represents.
    alloc_history:
        Optional ``(T, n, n)`` full allocation tensor (memory permitting).
    labels:
        Display names per peer.
    summary:
        Aggregate-only record (``history="none"``): ``slots``, ``n``,
        and per-peer ``rate_sum``, ``request_count``, ``capacity_sum``,
        ``isolation_sum`` arrays, plus the :class:`StreamingMetrics`
        extras (``gain_sum``, ``window_rate_sum``, ``window_slots`` and
        the per-slot ``jain`` trajectory) that let
        :func:`repro.obs.report.simulation_report` reproduce the
        full-history report bit for bit.
    """

    rates: np.ndarray | None
    requesting: np.ndarray | None
    capacities: np.ndarray | None
    mean_alloc: np.ndarray | None
    slot_seconds: float = 1.0
    alloc_history: np.ndarray | None = None
    labels: tuple[str, ...] = ()
    summary: dict | None = field(default=None, repr=False)

    def _need(self, what: str, array, name: str):
        if array is None:
            raise ValueError(
                f"{what} needs the {name} record; this result was produced "
                "with a reduced history mode (see Simulation.run(history=...))"
            )
        return array

    @property
    def slots(self) -> int:
        if self.rates is not None:
            return int(self.rates.shape[0])
        return int(self.summary["slots"])

    @property
    def n(self) -> int:
        if self.rates is not None:
            return int(self.rates.shape[1])
        return int(self.summary["n"])

    def smoothed_rates(self, window: int = 10) -> np.ndarray:
        """The paper's presentation: a 10-slot running average."""
        return running_average(
            self._need("smoothed_rates", self.rates, "per-slot rates"),
            window=window,
        )

    def empirical_gamma(self) -> np.ndarray:
        """Measured request frequency per user."""
        if self.requesting is not None:
            return self.requesting.mean(axis=0)
        return self.summary["request_count"] / self.slots

    def mean_capacity(self) -> np.ndarray:
        """Time-average upload capacity per peer."""
        if self.capacities is not None:
            return self.capacities.mean(axis=0)
        return self.summary["capacity_sum"] / self.slots

    def mean_rate_while_requesting(self) -> np.ndarray:
        """Average download rate per user over its requesting slots only."""
        if self.rates is None:
            # Rates are zero outside a user's requesting slots, so the
            # aggregate sum divided by the request count is the same
            # conditional mean (up to summation-order rounding).
            counts = self.summary["request_count"]
            out = np.zeros(self.n)
            np.divide(
                self.summary["rate_sum"], counts, out=out, where=counts > 0
            )
            return out
        out = np.zeros(self.n)
        for j in range(self.n):
            mask = self.requesting[:, j]
            if mask.any():
                out[j] = float(self.rates[mask, j].mean())
        return out

    def mean_download_bandwidth(self) -> np.ndarray:
        """The ``mu_bar_j`` of Theorem 1: time-average over *all* slots."""
        if self.rates is not None:
            return self.rates.mean(axis=0)
        return self.summary["rate_sum"] / self.slots

    def isolation_baseline(self) -> np.ndarray:
        """Average bandwidth each user would get operating alone.

        In isolation a requesting user downloads at its own peer's
        capacity, so the average is ``mean_t I_j(t) mu_j(t)`` — the
        ``gamma_j mu_j`` of Section IV-A, using realised indicators and
        capacities.
        """
        if self.requesting is not None:
            return (self.requesting * self.capacities).mean(axis=0)
        return self.summary["isolation_sum"] / self.slots

    def gains_over_isolation(self) -> np.ndarray:
        """Per-user average rate gain over isolation while requesting
        (the shaded regions of Figs. 6-7).

        Works from the streaming summary too (``history="none"``): the
        accumulated masked gain sum divided by the request count is the
        same reduction :func:`~repro.core.fairness.cooperation_gain`
        performs over the full record, bit for bit.
        """
        if self.rates is None:
            summary = self.summary or {}
            if "gain_sum" not in summary:
                raise ValueError(
                    "gains_over_isolation needs the per-slot rates record or "
                    "a streaming gain_sum; this result was produced with a "
                    "reduced history mode lacking both (older summary format)"
                )
            counts = summary["request_count"]
            out = np.zeros(self.n)
            np.divide(summary["gain_sum"], counts, out=out, where=counts > 0)
            return out
        return cooperation_gain(self.rates, self.capacities, self.requesting)

    def window_mean_rates(self, start: int, end: int) -> np.ndarray:
        """Mean rates over a slot window (figure annotations).

        Summary-only results serve exactly the pre-registered final
        report window (the trailing ``max(1, slots // 10)`` slots); any
        other window needs the per-slot record.
        """
        if not 0 <= start < end <= self.slots:
            raise ValueError(f"bad window [{start}, {end}) for {self.slots} slots")
        if self.rates is None:
            summary = self.summary or {}
            ws = summary.get("window_slots")
            if (
                ws is not None
                and start == self.slots - ws
                and end == self.slots
            ):
                return summary["window_rate_sum"] / ws
            raise ValueError(
                "window_mean_rates outside the recorded final window needs "
                "the per-slot rates record; this result was produced with a "
                "reduced history mode (see Simulation.run(history=...))"
            )
        return self.rates[start:end].mean(axis=0)

    def label_of(self, index: int) -> str:
        if self.labels and index < len(self.labels):
            return self.labels[index]
        return f"peer {index}"

    def to_dict(self, include_history: bool = True) -> dict:
        """JSON-able representation (``repro simulate --json`` output).

        Arrays become nested lists; ``include_history=False`` drops the
        (potentially large) full allocation tensor even when recorded.
        """
        out = {
            "rates": self.rates.tolist() if self.rates is not None else None,
            "requesting": (
                self.requesting.tolist() if self.requesting is not None else None
            ),
            "capacities": (
                self.capacities.tolist() if self.capacities is not None else None
            ),
            "mean_alloc": (
                self.mean_alloc.tolist() if self.mean_alloc is not None else None
            ),
            "slot_seconds": self.slot_seconds,
            "labels": list(self.labels),
            "alloc_history": None,
        }
        if include_history and self.alloc_history is not None:
            out["alloc_history"] = self.alloc_history.tolist()
        if self.summary is not None:
            blob = {
                "slots": int(self.summary["slots"]),
                "n": int(self.summary["n"]),
                "rate_sum": self.summary["rate_sum"].tolist(),
                "request_count": self.summary["request_count"].tolist(),
                "capacity_sum": self.summary["capacity_sum"].tolist(),
                "isolation_sum": self.summary["isolation_sum"].tolist(),
            }
            if "gain_sum" in self.summary:
                blob["gain_sum"] = self.summary["gain_sum"].tolist()
                blob["window_rate_sum"] = self.summary["window_rate_sum"].tolist()
                blob["window_slots"] = int(self.summary["window_slots"])
                blob["jain"] = [float(v) for v in self.summary["jain"]]
            out["summary"] = blob
        return out

    @classmethod
    def from_dict(cls, blob: dict) -> "SimulationResult":
        """Inverse of :meth:`to_dict`; round-trips bit-exactly via JSON."""

        def arr(key, dtype):
            value = blob.get(key)
            return np.asarray(value, dtype=dtype) if value is not None else None

        summary = blob.get("summary")
        if summary is not None:
            parsed = {
                "slots": int(summary["slots"]),
                "n": int(summary["n"]),
                "rate_sum": np.asarray(summary["rate_sum"], dtype=float),
                "request_count": np.asarray(
                    summary["request_count"], dtype=np.int64
                ),
                "capacity_sum": np.asarray(summary["capacity_sum"], dtype=float),
                "isolation_sum": np.asarray(summary["isolation_sum"], dtype=float),
            }
            if "gain_sum" in summary:
                parsed["gain_sum"] = np.asarray(summary["gain_sum"], dtype=float)
                parsed["window_rate_sum"] = np.asarray(
                    summary["window_rate_sum"], dtype=float
                )
                parsed["window_slots"] = int(summary["window_slots"])
                parsed["jain"] = [float(v) for v in summary["jain"]]
            summary = parsed
        return cls(
            rates=arr("rates", float),
            requesting=arr("requesting", bool),
            capacities=arr("capacities", float),
            mean_alloc=arr("mean_alloc", float),
            slot_seconds=float(blob.get("slot_seconds", 1.0)),
            alloc_history=arr("alloc_history", float),
            labels=tuple(blob.get("labels", ())),
            summary=summary,
        )
