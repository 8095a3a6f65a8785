"""User demand processes — the request indicators ``I_i(t)``.

Section IV-A models each user as requesting bandwidth at slot ``t`` with
probability ``gamma_i``, independently across users and time
(:class:`BernoulliDemand`).  The evaluation section additionally uses
saturated users (:class:`AlwaysOn`), scripted request windows
(:class:`ScheduleDemand`, e.g. "downloads from time = 1000"), and the
home-video workload of Figs. 6-7 where each user streams during 12
randomly chosen hours of the day (:class:`RandomHoursDemand`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "DemandProcess",
    "BernoulliDemand",
    "AlwaysOn",
    "NeverRequests",
    "ScheduleDemand",
    "DutyCycleDemand",
    "RandomHoursDemand",
    "ManualDemand",
    "as_demand",
    "SECONDS_PER_HOUR",
    "HOURS_PER_DAY",
]

SECONDS_PER_HOUR = 3600
HOURS_PER_DAY = 24


class DemandProcess(ABC):
    """Whether this peer's user requests a download at slot ``t``."""

    #: Whether :meth:`sample_block` may be used to pre-sample a window
    #: of future slots in one call.  Only safe when ``sample`` is a pure
    #: function of ``(t, the rng stream)`` — no external mutation
    #: between slots.  Processes driven from outside (e.g.
    #: :class:`ManualDemand`) must leave this ``False`` so the engine
    #: keeps sampling them slot by slot.
    blockable = False

    #: Whether ``sample``/``sample_block`` never touch the rng — a pure
    #: function of ``t`` alone.  The sparse engine groups deterministic
    #: demands so one ``sample_block`` call (rng ``None``) can serve
    #: every peer sharing an equivalent process, instead of consuming n
    #: per-peer streams; stochastic processes must leave this ``False``.
    deterministic = False

    @abstractmethod
    def sample(self, t: int, rng: np.random.Generator) -> bool:
        """Indicator ``I(t)``; ``rng`` is a per-peer stream for stochastic
        processes (deterministic processes ignore it)."""

    def sample_block(
        self, t0: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Indicators for slots ``t0 .. t0 + count - 1`` as a bool array.

        Must consume the rng stream exactly as ``count`` successive
        :meth:`sample` calls would, so a block-sampling engine stays
        bit-identical to the slot-by-slot reference (numpy's block draw
        ``rng.random(count)`` produces the same stream as ``count``
        scalar draws).  The default implementation simply loops.
        """
        return np.fromiter(
            (self.sample(t0 + s, rng) for s in range(count)),
            dtype=bool,
            count=count,
        )

    @property
    def gamma(self) -> float | None:
        """Long-run request probability if well defined, else ``None``."""
        return None


class BernoulliDemand(DemandProcess):
    """iid requests with probability ``gamma`` per slot (the paper's model)."""

    blockable = True

    def __init__(self, gamma: float):
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        self._gamma = float(gamma)

    def sample(self, t: int, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self._gamma)

    def sample_block(
        self, t0: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        return rng.random(count) < self._gamma

    @property
    def gamma(self) -> float:
        return self._gamma


class AlwaysOn(DemandProcess):
    """Saturated user (``gamma -> 1``): requests every slot."""

    blockable = True
    deterministic = True

    def sample(self, t: int, rng: np.random.Generator) -> bool:
        return True

    def sample_block(
        self, t0: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        return np.ones(count, dtype=bool)

    @property
    def gamma(self) -> float:
        return 1.0


class NeverRequests(DemandProcess):
    """Pure contributor: never downloads (``gamma = 0``)."""

    blockable = True
    deterministic = True

    def sample(self, t: int, rng: np.random.Generator) -> bool:
        return False

    def sample_block(
        self, t0: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        return np.zeros(count, dtype=bool)

    @property
    def gamma(self) -> float:
        return 0.0


class ScheduleDemand(DemandProcess):
    """Requests during explicit half-open slot intervals ``[start, end)``.

    ``ScheduleDemand([(1000, 3500)])`` reproduces "downloads from
    time = 1000" in the Fig. 8(a) experiment.
    """

    blockable = True
    deterministic = True

    def __init__(self, intervals: Iterable[tuple[int, int]]):
        self.intervals = tuple((int(a), int(b)) for a, b in intervals)
        for a, b in self.intervals:
            if b < a:
                raise ValueError(f"interval ({a}, {b}) has negative length")
        # The covered slots as sorted, disjoint runs: the union of the
        # non-empty intervals, overlapping or touching ones merged.
        runs: list[list[int]] = []
        for a, b in sorted(iv for iv in self.intervals if iv[0] < iv[1]):
            if runs and a <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], b)
            else:
                runs.append([a, b])
        bounds = np.array(runs, dtype=np.int64).reshape(-1, 2)
        self._starts, self._ends = bounds[:, 0], bounds[:, 1]

    def sample(self, t: int, rng: np.random.Generator) -> bool:
        return any(a <= t < b for a, b in self.intervals)

    def sample_block(
        self, t0: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        # The runs that meet the window are those ending after t0 and
        # starting before its end: one contiguous slice of the sorted
        # runs, typically one or two of them for a window of a time
        # block, each written as one slice.
        out = np.zeros(count, dtype=bool)
        first = int(np.searchsorted(self._ends, t0, side="right"))
        stop = int(np.searchsorted(self._starts, t0 + count))
        for a, b in zip(self._starts[first:stop].tolist(), self._ends[first:stop].tolist()):
            out[max(a - t0, 0) : b - t0] = True
        return out


class DutyCycleDemand(DemandProcess):
    """Requests during fixed hours-of-day, repeating daily."""

    blockable = True
    deterministic = True

    def __init__(self, active_hours: Iterable[int], slot_seconds: float = 1.0):
        self.active_hours = frozenset(int(h) for h in active_hours)
        if any(not 0 <= h < HOURS_PER_DAY for h in self.active_hours):
            raise ValueError(f"hours must be in [0, 24), got {sorted(self.active_hours)}")
        if slot_seconds <= 0:
            raise ValueError(f"slot_seconds must be positive, got {slot_seconds}")
        self.slot_seconds = float(slot_seconds)

    def hour_of(self, t: int) -> int:
        return int(t * self.slot_seconds // SECONDS_PER_HOUR) % HOURS_PER_DAY

    def sample(self, t: int, rng: np.random.Generator) -> bool:
        return self.hour_of(t) in self.active_hours

    def sample_block(
        self, t0: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        ts = np.arange(t0, t0 + count)
        hours = (
            np.floor_divide(ts * self.slot_seconds, SECONDS_PER_HOUR).astype(np.int64)
            % HOURS_PER_DAY
        )
        return np.isin(hours, sorted(self.active_hours))

    @property
    def gamma(self) -> float:
        return len(self.active_hours) / HOURS_PER_DAY


class RandomHoursDemand(DutyCycleDemand):
    """The Figs. 6-7 workload: ``hours_per_day`` random 1-hour chunks.

    "users downloaded for half of the day in chunks of 1 hour" — each
    instance independently draws its active hours from its own seed so a
    scenario is reproducible slot-for-slot.
    """

    def __init__(self, hours_per_day: int = 12, seed: int = 0, slot_seconds: float = 1.0):
        if not 0 <= hours_per_day <= HOURS_PER_DAY:
            raise ValueError(
                f"hours_per_day must be in [0, 24], got {hours_per_day}"
            )
        rng = np.random.default_rng(seed)
        hours = rng.choice(HOURS_PER_DAY, size=hours_per_day, replace=False)
        super().__init__(hours, slot_seconds=slot_seconds)
        self.seed = seed


class ManualDemand(DemandProcess):
    """Externally driven indicator — set :attr:`requesting` from outside.

    Used by the full-stack network to mark a user as requesting exactly
    while its download session is in progress.
    """

    #: Mutated between slots from outside — never block-sample it.
    blockable = False

    def __init__(self, requesting: bool = False):
        self.requesting = bool(requesting)

    def sample(self, t: int, rng: np.random.Generator) -> bool:
        return self.requesting


def as_demand(spec) -> DemandProcess:
    """Coerce a convenience spec into a :class:`DemandProcess`.

    Floats become :class:`BernoulliDemand`; ``True``/``False`` become
    always/never; sequences of pairs become :class:`ScheduleDemand`.
    """
    if isinstance(spec, DemandProcess):
        return spec
    if spec is True:
        return AlwaysOn()
    if spec is False:
        return NeverRequests()
    if isinstance(spec, (int, float)):
        return BernoulliDemand(float(spec))
    if isinstance(spec, Sequence) and not isinstance(spec, (str, bytes)):
        return ScheduleDemand(spec)
    raise TypeError(f"cannot interpret {spec!r} as a demand process")
