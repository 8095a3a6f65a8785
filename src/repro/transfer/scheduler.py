"""Parallel download orchestration: fill the download pipe from many peers.

The user "would typically contact multiple peers and request encoded
messages comprising the desired (encoded) file" and stop everyone once
``k`` useful messages arrived.  :class:`ParallelDownloader` drives the
serving sessions through **one** slot loop, ``step`` (``run`` is ``begin``,
``step`` per slot, ``finish``).  A slot, in order:

1. in-flight messages due by now reach the decoder;
2. if that completed the decode, every peer gets a stop deadline
   (``t`` + its stop lag) and peers with no lag are stopped at once;
3. the repair trigger, if any, compares surviving supply with need;
4. the slot's rates are fixed: ``rate_fn`` (in the full stack the
   Equation (2) allocation), the robust re-scale, the download cap;
5. per peer: wait out the handshake, or — after completion — keep
   transmitting *wasted* bytes until the stop arrives, or serve; served
   messages go in flight for the peer's delivery delay;
6. zero-delay messages are delivered in the slot they were served — all
   peers' in one decoder call after step 5 without a policy, each peer's
   right after it serves with one — and if that completed the decode
   step 2 runs now.

Policy and latency are state this loop consults, not separate paths.  A
:class:`RobustPolicy` adds the paper's threat model — every message is
digest-verified before it may reach the decoder, polluting peers are
quarantined and their budget re-scaled across the healthy ones, silent
peers trip a stall timeout, crashes are survived, and the report names
every faulty peer (crashed / stalled / polluted / refused) with the
bytes it cost; without one, behaviour and report are bit-identical to
trusting every peer.  A :class:`~repro.transfer.latency.LatencyModel`
supplies handshake, delivery and stop delays; no model is the all-zero
model and a peer with RTT 0 costs 0 slots (only ``first_data_slot``
tells the two apart: it stays ``None`` without a model).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass

from ..obs import REGISTRY as _OBS
from ..obs import TRACER as _TRACER
from ..obs import spans as _spans
from ..obs.events import (
    TRANSFER_COMPLETE,
    TRANSFER_DISCARD,
    TRANSFER_FAULT,
    TRANSFER_MESSAGE,
    TRANSFER_START,
    TRANSFER_STOP,
)
from ..rlnc.decoder import ProgressiveDecoder
from ..security.integrity import DigestStore
from .protocol import SessionCrashed, StopTransmission
from .session import ServingSession

__all__ = [
    "ParallelDownloader",
    "DownloadReport",
    "PeerFailure",
    "RobustPolicy",
    "kbps_to_bytes",
]

_XFER_BYTES = _OBS.counter(
    "repro.transfer.bytes_received", "payload bytes granted across all peers"
)
_XFER_WASTED = _OBS.counter(
    "repro.transfer.wasted_bytes",
    "bytes transmitted after decode completion, before the stop arrived",
)
_XFER_MESSAGES = _OBS.counter(
    "repro.transfer.messages", "completed messages offered to the decoder"
)
_XFER_STOP_LAG = _OBS.histogram(
    "repro.transfer.stop_latency_slots",
    "slots between decode completion and a peer honouring the stop",
)
_XFER_DISCARDED = _OBS.counter(
    "repro.transfer.discarded_bytes",
    "bytes of received messages discarded by digest verification",
)
_XFER_POLLUTED = _OBS.counter(
    "repro.transfer.polluted_messages",
    "received messages that failed digest verification (never offered)",
)
_FAULT_COUNTERS = {
    kind: _OBS.counter(
        f"repro.transfer.peers_{kind}",
        f"peers classified as {kind} by the robust download path",
    )
    for kind in ("crashed", "stalled", "polluted", "refused")
}


def kbps_to_bytes(kbps: float, seconds: float = 1.0) -> float:
    """Bytes carried by a ``kbps`` stream over ``seconds`` (1 kb = 1000 b)."""
    return kbps * 1000.0 / 8.0 * seconds


@dataclass(frozen=True)
class PeerFailure:
    """One faulty peer's entry in the download's failure taxonomy.

    ``kind`` is one of ``crashed`` (connection died mid-stream),
    ``stalled`` (granted budget but silent past the stall timeout),
    ``polluted`` (messages failed digest verification; quarantined) or
    ``refused`` (handshake never completed despite retries).
    ``bytes_discarded`` is what the misbehaviour cost: digest-rejected
    wire bytes plus budget wasted on a silent peer.
    """

    peer: int
    kind: str
    slot: int
    bytes_discarded: float = 0.0
    messages_discarded: int = 0
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


#: Digest failures tolerated before a peer is quarantined: one provably
#: bogus message is proof enough (the paper's stance).
QUARANTINE_AFTER = 1


@dataclass(frozen=True)
class RobustPolicy:
    """Failure handling knobs for the robust download path.

    Parameters
    ----------
    digest_store:
        The user's carried digest slice (Section III-C).  When set,
        every received message is verified *before* it may reach the
        decoder; failures are discarded and counted.  ``None`` disables
        pollution filtering (crash/stall/refusal handling still works).
    stall_timeout_slots:
        Quarantine a peer after this many consecutive slots in which it
        was granted budget but completed no message.  Must exceed the
        worst-case slots-per-message at the granted rate, or slow honest
        peers will be misclassified.

    A peer is quarantined after :data:`QUARANTINE_AFTER` digest
    failures, and quarantined peers' slot budget is re-scaled across
    the remaining healthy peers, so the download degrades instead of
    slowing by the faulty peers' share.
    """

    digest_store: DigestStore | None = None
    stall_timeout_slots: int = 12

    def __post_init__(self):
        if self.stall_timeout_slots < 1:
            raise ValueError(
                f"stall_timeout_slots must be >= 1, got {self.stall_timeout_slots}"
            )


@dataclass(frozen=True)
class DownloadReport:
    """Outcome of one parallel download.

    ``wasted_bytes`` counts bytes peers transmitted after decoding
    completed but before the stop transmission reached them (nonzero
    only under a latency model); ``first_data_slot`` is when the first
    payload byte arrived (after handshakes).  ``failures`` is the
    per-peer failure taxonomy collected by the robust path (empty when
    no :class:`RobustPolicy` was given or every peer behaved).
    """

    complete: bool
    slots: int
    bytes_received: float
    messages_delivered: int
    messages_rejected: int
    messages_dependent: int
    per_peer_bytes: tuple[float, ...]
    wasted_bytes: float = 0.0
    first_data_slot: int | None = None
    slot_seconds: float = 1.0
    failures: tuple[PeerFailure, ...] = ()

    @property
    def seconds(self) -> float:
        """Wall-clock duration: slots scaled by the slot length."""
        return self.slots * self.slot_seconds

    @property
    def bytes_discarded(self) -> float:
        """Total bytes lost to faulty peers, across the taxonomy."""
        return sum(f.bytes_discarded for f in self.failures)

    @property
    def failed_peers(self) -> tuple[int, ...]:
        return tuple(f.peer for f in self.failures)

    def failure_of(self, peer: int) -> PeerFailure | None:
        for f in self.failures:
            if f.peer == peer:
                return f
        return None

    def effective_rate_kbps(self, slot_seconds: float | None = None) -> float:
        """Granted rate over the whole download: ``bytes_received`` is the
        byte budget the allocation granted, not the bytes delivered
        (ROADMAP 15(a) splits the two).

        ``slot_seconds`` defaults to the report's own slot length (the
        explicit parameter is kept for callers that re-scale).
        """
        if self.slots == 0:
            return 0.0
        seconds = self.slots * (self.slot_seconds if slot_seconds is None else slot_seconds)
        return self.bytes_received * 8.0 / 1000.0 / seconds

    def to_dict(self) -> dict:
        """JSON-ready form, failure taxonomy included."""
        return {
            "complete": self.complete,
            "slots": self.slots,
            "seconds": self.seconds,
            "slot_seconds": self.slot_seconds,
            "bytes_received": self.bytes_received,
            "messages_delivered": self.messages_delivered,
            "messages_rejected": self.messages_rejected,
            "messages_dependent": self.messages_dependent,
            "per_peer_bytes": list(self.per_peer_bytes),
            "wasted_bytes": self.wasted_bytes,
            "first_data_slot": self.first_data_slot,
            "bytes_discarded": self.bytes_discarded,
            "failures": [f.to_dict() for f in self.failures],
        }


class _RobustState:
    """Per-peer health book-keeping for the failure-aware paths.

    Owns the failure taxonomy: who is dead (no further budget), why,
    and what their misbehaviour cost.
    """

    def __init__(
        self,
        n: int,
        policy: RobustPolicy,
        sessions: Sequence,
        peer_spans: list | None = None,
    ):
        self.policy = policy
        self.n = n
        self.dead = [False] * n
        self._peer_spans = peer_spans
        self._failed: dict[int, tuple[str, int, str]] = {}
        self._discard_bytes = [0.0] * n
        self._discard_msgs = [0] * n
        self._stall_run = [0] * n
        self._stall_bytes = [0.0] * n
        for i, session in enumerate(sessions):
            if not getattr(session, "authenticated", True):
                self._fail(
                    i, "refused", 0,
                    "authentication never completed (after bounded retries)",
                )

    def _fail(self, peer: int, kind: str, slot: int, detail: str) -> None:
        if peer in self._failed:
            return
        self._failed[peer] = (kind, slot, detail)
        self.dead[peer] = True
        if _OBS.enabled:
            _FAULT_COUNTERS[kind].inc()
        _TRACER.emit(TRANSFER_FAULT, peer=peer, kind=kind, slot=slot)
        if self._peer_spans is not None:
            # An instantaneous child span where the peer's session turned bad:
            # on the causal tree even when the flat event ring has wrapped.
            quarantine = _spans.start_span(
                "transfer.quarantine",
                parent=self._peer_spans[peer],
                kind=kind,
                slot=slot,
            )
            _spans.finish_span(quarantine, status=kind)

    def adjust_rates(self, rates: list[float], sessions: Sequence) -> list[float]:
        """Zero dead peers' shares; re-scale them across healthy peers."""
        out = list(rates)
        lost = 0.0
        for i in range(self.n):
            if self.dead[i]:
                lost += max(out[i], 0.0)
                out[i] = 0.0
        if lost > 0.0:
            healthy = [
                i
                for i in range(self.n)
                if not self.dead[i] and sessions[i].active and out[i] > 0
            ]
            healthy_total = sum(out[i] for i in healthy)
            if healthy_total > 0:
                scale = 1.0 + lost / healthy_total
                for i in healthy:
                    out[i] *= scale
        return out

    def verify(self, peer: int, message, slot: int) -> bool:
        """Digest-check one received message; quarantine on failure."""
        store = self.policy.digest_store
        if store is None:
            return True
        if store.verify(message.file_id, message.message_id, message.payload_bytes()):
            return True
        wire = message.wire_size()
        self._discard_msgs[peer] += 1
        self._discard_bytes[peer] += wire
        if _OBS.enabled:
            _XFER_POLLUTED.inc()
            _XFER_DISCARDED.inc(wire)
        _TRACER.emit(
            TRANSFER_DISCARD, slot=slot, peer=peer, message_id=int(message.message_id)
        )
        if self._discard_msgs[peer] >= QUARANTINE_AFTER:
            self._fail(
                peer, "polluted", slot,
                "quarantined after failed digest verification",
            )
        return False

    def note_served(self, peer: int, delivered: int, budget: float, slot: int) -> None:
        """Track silence for the stall timeout."""
        if self.dead[peer]:
            return
        if budget > 0 and delivered == 0:
            self._stall_run[peer] += 1
            self._stall_bytes[peer] += budget
            if self._stall_run[peer] >= self.policy.stall_timeout_slots:
                self._fail(
                    peer, "stalled", slot,
                    f"no data for {self._stall_run[peer]} consecutive slots",
                )
        else:
            self._stall_run[peer] = 0
            self._stall_bytes[peer] = 0.0

    def note_crash(self, peer: int, slot: int, exc: SessionCrashed) -> None:
        self._fail(peer, "crashed", slot, str(exc))

    def failures(self) -> tuple[PeerFailure, ...]:
        return tuple(
            PeerFailure(
                peer=peer,
                kind=kind,
                slot=slot,
                bytes_discarded=self._discard_bytes[peer] + self._stall_bytes[peer],
                messages_discarded=self._discard_msgs[peer],
                detail=detail,
            )
            for peer, (kind, slot, detail) in sorted(self._failed.items())
        )


class ParallelDownloader:
    """Slot-stepped parallel download into a progressive decoder.

    Parameters
    ----------
    sessions:
        Authenticated, request-accepted serving sessions, one per peer.
        With a ``policy``, sessions whose handshake never completed may
        also be passed — they are classified as ``refused`` and granted
        no budget.
    decoder:
        The user's :class:`~repro.rlnc.decoder.ProgressiveDecoder` (or
        one chunk of a :class:`~repro.rlnc.chunking.StreamingDecoder`,
        see its ``chunk()``): ``offer``, ``offer_many``, ``is_complete``.
    rate_fn:
        ``rate_fn(peer_index, t) -> kbps`` granted to this user at slot
        ``t`` — the hook where the allocation engine plugs in.  Called
        once per peer per slot, in index order.  May be ``None`` when
        the caller drives :meth:`step` and passes ``rates`` every slot.
    download_cap_kbps:
        The user's download-link capacity ``lambda_d``; the paper assumes
        it is not the bottleneck but the cap is enforced anyway (shares
        are scaled down proportionally when the sum exceeds it).
    slot_seconds:
        Wall-clock length of one slot.
    latency:
        Optional :class:`~repro.transfer.latency.LatencyModel`: per-peer
        handshake, delivery and stop-transmission delays in slots.
        ``None`` is the all-zero case of the same loop.
    policy:
        Optional :class:`RobustPolicy` enabling verification, quarantine,
        stall timeouts and crash survival.  ``None`` (the default)
        preserves the trusting behaviour exactly.
    repair:
        Optional :class:`~repro.repair.monitor.DownloadRepairTrigger`.
        The first slot in which the undelivered supply across live
        sessions falls below the trigger's threshold times what the
        decoder still needs, the repair hook fires (once) and restores
        redundancy out-of-band (fresh messages appear in a live peer's
        store and flow through its open serving cursor).  ``None``
        changes nothing.
    """

    def __init__(
        self,
        sessions: Sequence[ServingSession],
        decoder: ProgressiveDecoder,
        rate_fn: Callable[[int, int], float] | None,
        download_cap_kbps: float = math.inf,
        slot_seconds: float = 1.0,
        latency=None,
        policy: RobustPolicy | None = None,
        repair=None,
    ):
        if not sessions:
            raise ValueError("need at least one serving session")
        if slot_seconds <= 0:
            raise ValueError(f"slot_seconds must be positive, got {slot_seconds}")
        if latency is not None and len(latency) != len(sessions):
            raise ValueError(
                f"latency model covers {len(latency)} peers but there are "
                f"{len(sessions)} sessions"
            )
        self.sessions = list(sessions)
        self.decoder = decoder
        self.rate_fn = rate_fn
        self.download_cap_kbps = download_cap_kbps
        self.slot_seconds = float(slot_seconds)
        self.latency = latency
        self.policy = policy
        self.repair = repair

    def run(self, max_slots: int, file_id: int | None = None) -> DownloadReport:
        """Step until nothing is left to do or ``max_slots`` elapse."""
        file_id = -1 if file_id is None else file_id
        with _spans.span_scope(
            "transfer.download", peers=len(self.sessions), file_id=file_id
        ):
            self.begin(file_id)
            try:
                for t in range(max_slots):
                    if not self.step(t):
                        break
            except BaseException:
                self.finish(status="error")
                raise
            return self.finish()

    def begin(self, file_id: int | None = None) -> None:
        """Reset the slot machine for one download of ``file_id``."""
        n = len(self.sessions)
        lat = self.latency
        self._stop_msg = StopTransmission(file_id=-1 if file_id is None else file_id)
        _TRACER.emit(TRANSFER_START, peers=n, file_id=self._stop_msg.file_id)
        # One causal span per serving session, parented under the caller's
        # scope (run(): the download root); quarantine children attach here.
        self._peer_spans = (
            [_spans.start_span("transfer.peer", peer=i) for i in range(n)]
            if _TRACER.enabled
            else None
        )
        self._robust = (
            _RobustState(n, self.policy, self.sessions, peer_spans=self._peer_spans)
            if self.policy is not None
            else None
        )
        # Peers granted no further budget; nobody is, without a policy.
        self._dead = self._robust.dead if self._robust is not None else [False] * n
        # Per-peer delays in slots; no model is the all-zero model.
        self._handshake = [lat.handshake_slots(i) if lat is not None else 0 for i in range(n)]
        self._delivery = [lat.delivery_slots(i) if lat is not None else 0 for i in range(n)]
        self._stop_lag = [lat.stop_slots(i) if lat is not None else 0 for i in range(n)]
        self._stop_deadline: list[int | None] = [None] * n
        self._inflight: list[tuple[int, int, object]] = []  # (arrival, peer, message)
        self._per_peer = [0.0] * n
        self._bytes = self._wasted = 0.0
        self._delivered = self._dependent = self._rejected = 0
        self._revoked = getattr(self.decoder, "revoked", 0)
        self._slots = 0
        self._first_data_slot: int | None = None
        self._complete_slot: int | None = None
        # Without a model an already-complete decode takes no slot; with
        # one, the stop transmissions still have to travel.
        self._done = lat is None and self.decoder.is_complete

    def step(self, t: int, rates: Sequence[float] | None = None) -> bool:
        """Run slot ``t`` (order: module docstring); ``False`` once nothing
        is left to do.  ``rates`` (kbps per peer) replaces the ``rate_fn``
        lookup for a caller that already holds the slot's allocation."""
        if self._done:
            return False
        robust = self._robust
        self._slots += 1
        due = [entry for entry in self._inflight if entry[0] <= t]
        if due:
            # Arrivals not consumed (the decode completed first) stay in
            # flight, in their original queue order.
            gone = set(map(id, due[: self._offer(due, t)]))
            self._inflight = [e for e in self._inflight if id(e) not in gone]
        self._on_complete(t)
        self._check_repair()

        if rates is None:
            rates = [self.rate_fn(i, t) for i in range(len(self.sessions))]
        else:
            rates = [float(r) for r in rates]
        if robust is not None:
            rates = robust.adjust_rates(rates, self.sessions)
        total = sum(rates)
        if total > self.download_cap_kbps > 0:
            scale = self.download_cap_kbps / total
            rates = [r * scale for r in rates]

        stopping = self._complete_slot is not None
        quiet = stopping  # no peer in handshake, none still transmitting
        # Trusting path: the slot's zero-delay arrivals reach the decoder
        # in one call after the peer loop, in peer order.  The robust
        # path offers per peer: its verdicts and fault events interleave
        # with the offers.
        batch = [] if robust is None else None
        # Peers transmit concurrently within the slot: every active
        # session's budget flows even if an earlier one's messages just
        # completed the decode; the surplus is simply not offered.
        for i, (session, rate) in enumerate(zip(self.sessions, rates)):
            if self._dead[i]:
                continue
            if t < self._handshake[i]:
                quiet = False
                continue
            if stopping and t >= self._stop_deadline[i]:
                if session.active:
                    session.stop(self._stop_msg)
                continue
            if not session.active or rate <= 0:
                continue
            budget = kbps_to_bytes(rate, self.slot_seconds)
            if stopping:
                # The peer keeps sending until the stop arrives.
                quiet = False
                self._wasted += budget
                if _OBS.enabled:
                    _XFER_WASTED.inc(budget)
                self._serve(i, session, budget, t)
                continue
            self._per_peer[i] += budget
            self._bytes += budget
            if _OBS.enabled:
                _XFER_BYTES.inc(budget)
            if self._first_data_slot is None and self.latency is not None:
                self._first_data_slot = t
            served = self._serve(i, session, budget, t)
            if robust is not None:
                robust.note_served(i, len(served), budget, t)
            arrivals = [(t + self._delivery[i], i, d.message) for d in served]
            if self._delivery[i]:
                self._inflight += arrivals
            elif batch is not None:
                batch += arrivals
            else:
                self._offer(arrivals, t)
        if batch:
            self._offer(batch, t)
        self._on_complete(t)
        self._done = self._complete_slot is not None and (
            (quiet and not self._inflight)
            or all(t >= deadline for deadline in self._stop_deadline)
        )
        return not self._done

    def finish(self, status: str = "ok") -> DownloadReport:
        """Settle the decoder's pending rows if the decode is incomplete,
        close the per-peer spans (failure kind, else ``status``); report."""
        if not self.decoder.is_complete:
            self._settle()
        failures = self._robust.failures() if self._robust is not None else ()
        if self._peer_spans is not None:
            kind_of = {f.peer: f.kind for f in failures}
            for i, handle in enumerate(self._peer_spans):
                _spans.finish_span(handle, status=kind_of.get(i, status))
            self._peer_spans = None
        return DownloadReport(
            complete=self.decoder.is_complete,
            slots=self._slots,
            bytes_received=self._bytes,
            messages_delivered=self._delivered,
            messages_rejected=self._rejected,
            messages_dependent=self._dependent,
            per_peer_bytes=tuple(self._per_peer),
            wasted_bytes=self._wasted,
            first_data_slot=self._first_data_slot,
            slot_seconds=self.slot_seconds,
            failures=failures,
        )

    def _serve(self, i: int, session, budget: float, t: int) -> list:
        """One peer's slot of bytes; a crash is survived only with a policy."""
        try:
            return session.serve(budget)
        except SessionCrashed as exc:
            if self._robust is None:
                raise
            self._robust.note_crash(i, t, exc)
            return list(exc.delivered)  # completed before the cut: still count

    def _offer(self, arrivals: list, t: int) -> int:
        """Deliver ``(arrival, peer, message)`` entries in order until the
        decode completes; returns how many were consumed."""
        if self._robust is None:
            # One batched elimination pass; offer_many stops at completion.
            outcomes = self.decoder.offer_many([entry[2] for entry in arrivals])
            for (_, peer, _), outcome in zip(arrivals, outcomes):
                self._tally(peer, outcome, t)
            consumed = len(outcomes)
        else:
            # Per message: each verification outcome feeds a quarantine
            # decision and its events interleave with the offers in order.
            consumed = 0
            for _, peer, message in arrivals:
                if self.decoder.is_complete:
                    break
                consumed += 1
                if self._robust.verify(peer, message, t):  # else discarded unseen
                    self._tally(peer, self.decoder.offer(message), t)
        self._reconcile()
        return consumed

    def _reconcile(self) -> None:
        """Move the rows the decoder revoked since the last call (reported
        accepted, dropped when their digests were checked; a decoder that
        checks every row before use revokes none) from delivered to
        rejected, so the report counts each message by its final outcome."""
        revoked = getattr(self.decoder, "revoked", 0)
        moved, self._revoked = revoked - self._revoked, revoked
        self._delivered -= moved
        self._rejected += moved

    def _settle(self) -> None:
        """Have the decoder authenticate its pending rows now (a decoder
        without ``settle`` checks every row before use) and reconcile."""
        settle = getattr(self.decoder, "settle", None)
        if settle is not None:
            settle()
            self._reconcile()

    def _tally(self, peer: int, outcome, t: int) -> None:
        name = getattr(outcome, "name", str(outcome))
        if _OBS.enabled:
            _XFER_MESSAGES.inc()
        _TRACER.emit(TRANSFER_MESSAGE, slot=t, peer=peer, outcome=name)
        if name in ("ACCEPTED", "COMPLETE"):
            self._delivered += 1
        elif name == "DEPENDENT":
            self._dependent += 1
        else:
            self._rejected += 1

    def _on_complete(self, t: int) -> None:
        """Step 5, once: tell every peer to stop; it hears it a lag later."""
        if self._complete_slot is not None or not self.decoder.is_complete:
            return
        self._complete_slot = t
        _TRACER.emit(
            TRANSFER_COMPLETE, slot=t, delivered=self._delivered,
            dependent=self._dependent, rejected=self._rejected,
        )
        for i, (session, lag) in enumerate(zip(self.sessions, self._stop_lag)):
            self._stop_deadline[i] = t + lag
            if lag == 0:
                session.stop(self._stop_msg)
            if _OBS.enabled:
                _XFER_STOP_LAG.observe(lag)
            _TRACER.emit(TRANSFER_STOP, peer=i, slot=t + lag, lag_slots=lag)

    def _check_repair(self) -> None:
        """Fire the repair trigger when surviving supply can't finish.

        ``supply`` counts messages in flight plus those undelivered at
        live sessions; duplicates and dependent rows make it optimistic,
        the right bias — repair is a fallback, not a first resort.
        The decoder's pending rows are authenticated first: a forged one
        still pending would count against ``needed``, and the trigger
        fires only once.
        """
        if self.repair is None or self.decoder.is_complete:
            return
        self._settle()
        needed = getattr(self.decoder, "needed", None)
        if needed is None:
            return
        needed = int(needed)
        supply = len(self._inflight) + sum(
            int(getattr(session, "remaining", 0))
            for session, dead in zip(self.sessions, self._dead)
            if not dead and session.active
        )
        if self.repair.should_fire(needed, supply):
            self.repair.fire(needed)
