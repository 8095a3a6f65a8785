"""Deterministic fault plans: who fails, how, and when.

The paper's serving peers are untrusted and unreliable — Section III
adds per-message digests because "malicious hosts could then provide
bogus data", and the bandwidth-sharing analysis assumes peers come and
go.  A :class:`FaultPlan` makes that world reproducible: it assigns
each peer index a set of :class:`PeerFault` specs, and every random
choice an injected fault makes (which byte to corrupt, what garbage to
send) is drawn from a generator seeded by ``(plan seed, peer index)``,
so a test or benchmark that replays the same plan sees bit-identical
misbehaviour.

Fault kinds
-----------

``crash``
    The peer's connection dies once it has streamed ``at_byte`` bytes;
    messages completed before the cut still arrive.
``stall``
    The peer goes silent for ``duration`` slots starting at its local
    slot ``at_slot`` — budget granted during the window buys nothing.
``corrupt``
    Silent bit corruption: each delivered message is, with probability
    ``rate``, altered in one symbol.  Header intact, payload wrong —
    exactly what the per-message digests exist to catch.
``pollute``
    Coded-message pollution: with probability ``rate`` the payload is
    replaced wholesale by random symbols under a valid header — the
    dominant attack on RLNC systems (see PAPERS.md on Byzantine /
    pollution attacks in network-coded P2P).
``refuse``
    The peer refuses service: challenge-response authentication never
    succeeds, forcing the downloader's bounded-retry path.
``depart``
    Permanent churn: the peer leaves the system at local slot
    ``at_slot`` and never comes back — its stored messages are gone,
    which is what the repair subsystem exists to compensate.
``rejoin``
    The peer is absent until local slot ``at_slot``, then serves
    normally — the arriving half of a churn event, typically a
    freshly repaired replica coming online.
``churn``
    A departure/rejoin cycle: the peer drops at ``at_slot`` (the
    connection dies like a crash) and returns ``duration`` slots later
    with its stored messages intact.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["FaultPlan", "PeerFault", "FaultSpecError", "FAULT_KINDS"]

FAULT_KINDS = (
    "crash",
    "stall",
    "corrupt",
    "pollute",
    "refuse",
    "depart",
    "rejoin",
    "churn",
)


class FaultSpecError(ValueError):
    """Raised for malformed fault specs (bad kind, bad parameters)."""


@dataclass(frozen=True)
class PeerFault:
    """One fault assigned to one peer.

    Only the parameters relevant to ``kind`` are consulted:
    ``at_byte`` for ``crash``; ``at_slot``/``duration`` for ``stall``
    and ``churn``; ``at_slot`` for ``depart`` and ``rejoin``; ``rate``
    for ``corrupt`` and ``pollute``.
    """

    kind: str
    at_byte: float = 0.0
    at_slot: int = 0
    duration: int = 1
    rate: float = 1.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.kind == "crash" and not 0 <= self.at_byte < math.inf:
            # NaN and inf compare false against every byte count: the
            # planned crash would silently never fire.
            raise FaultSpecError(
                f"crash at_byte must be finite and non-negative: {self.at_byte}"
            )
        if self.kind == "stall":
            if self.at_slot < 0:
                raise FaultSpecError(f"stall at_slot cannot be negative: {self.at_slot}")
            if self.duration < 1:
                raise FaultSpecError(f"stall duration must be >= 1: {self.duration}")
        if self.kind in ("corrupt", "pollute") and not 0.0 < self.rate <= 1.0:
            raise FaultSpecError(
                f"{self.kind} rate must be in (0, 1], got {self.rate}"
            )
        if self.kind in ("depart", "rejoin") and self.at_slot < 0:
            raise FaultSpecError(
                f"{self.kind} at_slot cannot be negative: {self.at_slot}"
            )
        if self.kind == "churn":
            if self.at_slot < 0:
                raise FaultSpecError(f"churn at_slot cannot be negative: {self.at_slot}")
            if self.duration < 1:
                raise FaultSpecError(f"churn duration must be >= 1: {self.duration}")

    def to_entry(self, peer: int) -> str:
        """The compact spec-string entry for this fault (see ``parse``)."""
        if self.kind == "crash":
            return f"{peer}:crash@{self.at_byte:g}"
        if self.kind == "stall":
            return f"{peer}:stall@{self.at_slot}+{self.duration}"
        if self.kind == "churn":
            return f"{peer}:churn@{self.at_slot}+{self.duration}"
        if self.kind in ("depart", "rejoin"):
            return f"{peer}:{self.kind}@{self.at_slot}"
        if self.kind in ("corrupt", "pollute"):
            rate = f"{self.rate:g}"
            # A rate that prints as 1 parses back as the default.
            return f"{peer}:{self.kind}" if rate == "1" else f"{peer}:{self.kind}@{rate}"
        return f"{peer}:{self.kind}"


def _parse_entry(entry: str) -> tuple[int, PeerFault]:
    try:
        peer_part, fault_part = entry.split(":", 1)
        peer = int(peer_part)
    except ValueError as exc:
        raise FaultSpecError(
            f"bad fault entry {entry!r}: expected '<peer>:<kind>[@arg]'"
        ) from exc
    if peer < 0:
        raise FaultSpecError(f"peer index cannot be negative: {entry!r}")
    kind, _, arg = fault_part.partition("@")
    try:
        if kind == "crash":
            return peer, PeerFault("crash", at_byte=float(arg) if arg else 0.0)
        if kind == "stall":
            at_slot_s, _, duration_s = arg.partition("+")
            return peer, PeerFault(
                "stall",
                at_slot=int(at_slot_s) if at_slot_s else 0,
                duration=int(duration_s) if duration_s else 1,
            )
        if kind == "churn":
            at_slot_s, _, duration_s = arg.partition("+")
            return peer, PeerFault(
                "churn",
                at_slot=int(at_slot_s) if at_slot_s else 0,
                duration=int(duration_s) if duration_s else 1,
            )
        if kind in ("depart", "rejoin"):
            return peer, PeerFault(kind, at_slot=int(arg) if arg else 0)
        if kind in ("corrupt", "pollute"):
            return peer, PeerFault(kind, rate=float(arg) if arg else 1.0)
        if kind == "refuse":
            if arg:
                raise FaultSpecError(f"refuse takes no argument: {entry!r}")
            return peer, PeerFault("refuse")
    except FaultSpecError:
        raise
    except ValueError as exc:
        raise FaultSpecError(f"bad fault argument in {entry!r}") from exc
    raise FaultSpecError(
        f"unknown fault kind {kind!r} in {entry!r}; expected one of {FAULT_KINDS}"
    )


class FaultPlan:
    """A seeded assignment of faults to peer indices.

    Parameters
    ----------
    seed:
        Base seed; peer ``i``'s injected randomness comes from a
        generator seeded ``(seed, i)``, independent of every other peer.
    faults:
        ``{peer_index: PeerFault | [PeerFault, ...]}``.
    """

    def __init__(
        self,
        seed: int = 0,
        faults: Mapping[int, PeerFault | Iterable[PeerFault]] | None = None,
    ):
        self.seed = int(seed)
        self._faults: dict[int, tuple[PeerFault, ...]] = {}
        for peer, spec in (faults or {}).items():
            if int(peer) < 0:
                raise FaultSpecError(f"peer index cannot be negative: {peer}")
            entry = (spec,) if isinstance(spec, PeerFault) else tuple(spec)
            if entry:
                self._faults[int(peer)] = entry

    # -- introspection ---------------------------------------------------

    @property
    def peers(self) -> tuple[int, ...]:
        """Peer indices with at least one fault, ascending."""
        return tuple(sorted(self._faults))

    def faults_for(self, peer: int) -> tuple[PeerFault, ...]:
        return self._faults.get(peer, ())

    def __len__(self) -> int:
        return len(self._faults)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FaultPlan)
            and self.seed == other.seed
            and self._faults == other._faults
        )

    def __hash__(self) -> int:
        # Defining __eq__ suppresses the default hash; plans are
        # logically immutable after construction, so hash the same state
        # __eq__ compares (PeerFault is a frozen dataclass, hashable).
        return hash((self.seed, tuple(sorted(self._faults.items()))))

    def rng_for(self, peer: int) -> np.random.Generator:
        """The deterministic generator backing peer ``peer``'s faults."""
        return np.random.default_rng((self.seed, peer))

    # -- spec strings ----------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the compact CLI spec.

        Entries are ``;``-separated: an optional ``seed=N`` plus any
        number of ``<peer>:<kind>[@arg]`` assignments, e.g.::

            seed=7;0:pollute;1:crash@1500;2:stall@10+6;3:refuse;4:corrupt@0.3

        ``crash@B`` cuts after ``B`` streamed bytes, ``stall@S+D``
        silences local slots ``[S, S+D)``, ``corrupt@R``/``pollute@R``
        hit each message with probability ``R`` (default 1),
        ``depart@S`` leaves for good at slot ``S``, ``rejoin@S`` is
        absent until slot ``S``, ``churn@S+D`` drops at ``S`` and
        returns at ``S+D``.
        """
        seed = 0
        faults: dict[int, list[PeerFault]] = {}
        for raw in spec.split(";"):
            entry = raw.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                try:
                    seed = int(entry[len("seed="):])
                except ValueError as exc:
                    raise FaultSpecError(f"bad seed in {entry!r}") from exc
                continue
            peer, fault = _parse_entry(entry)
            faults.setdefault(peer, []).append(fault)
        return cls(seed=seed, faults=faults)

    def to_spec(self) -> str:
        """The compact string form; ``parse`` round-trips it."""
        entries = [f"seed={self.seed}"]
        for peer in self.peers:
            entries.extend(f.to_entry(peer) for f in self._faults[peer])
        return ";".join(entries)

    def __repr__(self) -> str:
        return f"FaultPlan.parse({self.to_spec()!r})"

    # -- session wrapping ------------------------------------------------

    def wrap(self, sessions: Sequence) -> list:
        """Wrap each faulty peer's serving session with an injector.

        Sessions at indices without faults are returned untouched, so a
        plan is a no-op for healthy peers and an empty plan changes
        nothing at all.
        """
        from .injector import FaultyServingSession

        return [
            FaultyServingSession(s, self.faults_for(i), self.rng_for(i), peer=i)
            if self.faults_for(i)
            else s
            for i, s in enumerate(sessions)
        ]

    # -- simulator reuse -------------------------------------------------

    def capacity_profile(
        self, peer: int, kbps: float, slots: int, slot_seconds: float = 1.0
    ) -> list[tuple[int, float]] | None:
        """Fault-driven ``StepCapacity`` steps for the slot simulator.

        Maps transfer-level faults onto the bandwidth-sharing layer's
        vocabulary: ``refuse`` is a peer that is never online, ``crash``
        goes offline for good once its byte budget is spent, ``stall``
        is a temporary outage.  ``corrupt``/``pollute`` peers keep full
        capacity — they still consume upload bandwidth; the *goodput*
        loss is a transfer-layer concern (see the goodput benchmark).
        Returns ``None`` when the faults leave capacity unchanged.
        """
        if kbps <= 0:
            raise FaultSpecError(f"kbps must be positive, got {kbps}")
        bytes_per_slot = kbps * 1000.0 / 8.0 * slot_seconds
        off: list[tuple[int, int]] = []  # [start, end) offline intervals
        for fault in self.faults_for(peer):
            if fault.kind == "refuse":
                off.append((0, slots))
            elif fault.kind == "crash":
                start = int(np.ceil(fault.at_byte / bytes_per_slot))
                off.append((min(start, slots), slots))
            elif fault.kind in ("stall", "churn"):
                off.append(
                    (min(fault.at_slot, slots), min(fault.at_slot + fault.duration, slots))
                )
            elif fault.kind == "depart":
                off.append((min(fault.at_slot, slots), slots))
            elif fault.kind == "rejoin":
                off.append((0, min(fault.at_slot, slots)))
        off = [(s, e) for s, e in off if e > s]
        if not off:
            return None
        off.sort()
        merged = [off[0]]
        for start, end in off[1:]:
            if start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        steps: list[tuple[int, float]] = []
        cursor = 0
        for start, end in merged:
            if start > cursor:
                steps.append((cursor, kbps))
            steps.append((start, 0.0))
            cursor = end
        if cursor < slots:
            steps.append((cursor, kbps))
        return steps
