"""Peer- and user-side session state machines for one download.

A :class:`ServingSession` lives at the peer: it refuses to stream until
challenge-response authentication succeeds, then serves its stored
messages serially (Fig. 3) at whatever per-slot byte budget the
allocation layer grants, and honours the stop transmission.

A :class:`DownloadSession` lives at the user: it runs the prover side of
the handshake and tracks per-peer progress.  Fractional messages carry
over between slots — a message is delivered only once all of its wire
bytes have arrived (TCP-like in-order delivery of the serial stream).
"""

from __future__ import annotations

from ..obs import REGISTRY as _OBS
from ..obs import TRACER as _TRACER
from ..obs import spans as _spans
from ..obs.events import TRANSFER_RETRY
from ..security.auth import Prover, Verifier
from ..security.keys import KeyPair, PublicKey
from ..storage.store import MessageStore, ServingCursor
from .protocol import (
    AuthChallenge,
    AuthResponse,
    DataMessage,
    FileAccept,
    FileRequest,
    ProtocolError,
    StopTransmission,
)

__all__ = ["ServingSession", "DownloadSession"]

_SERVE_MESSAGES = _OBS.counter(
    "repro.transfer.serve.messages", "complete messages streamed by serving peers"
)
_SERVE_BYTES = _OBS.counter(
    "repro.transfer.serve.bytes", "byte budget consumed by serving peers"
)
_HANDSHAKE_RETRIES = _OBS.counter(
    "repro.transfer.handshake.retries", "handshake attempts that failed and were retried"
)


class ServingSession:
    """One peer's server-side state for one (user, file) download."""

    def __init__(self, store: MessageStore, trusted_key: PublicKey):
        self._store = store
        self._verifier = Verifier(trusted_key)
        self._authenticated = False
        self._cursor: ServingCursor | None = None
        self._partial_bytes = 0.0
        self._stopped = False
        self.bytes_sent = 0.0
        self.messages_sent = 0

    # -- handshake ------------------------------------------------------

    def begin_auth(self) -> AuthChallenge:
        return AuthChallenge(self._verifier.issue_challenge())

    def complete_auth(self, response: AuthResponse) -> bool:
        self._authenticated = self._verifier.verify(
            response.challenge, response.response
        )
        return self._authenticated

    def accept_request(self, request: FileRequest) -> FileAccept:
        if not self._authenticated:
            raise ProtocolError("file requested before authentication")
        self._cursor = self._store.open_cursor(request.file_id)
        return FileAccept(
            file_id=request.file_id, available_messages=self._cursor.remaining
        )

    # -- data plane ------------------------------------------------------

    @property
    def authenticated(self) -> bool:
        """Whether challenge-response authentication has succeeded."""
        return self._authenticated

    @property
    def active(self) -> bool:
        return (
            self._authenticated
            and self._cursor is not None
            and not self._stopped
            and not self._cursor.exhausted
        )

    @property
    def remaining(self) -> int:
        """Undelivered stored messages this session can still stream.

        The redundancy monitor sums this across live sessions to decide
        whether the surviving supply can still complete the decode.
        """
        if self._cursor is None or self._stopped:
            return 0
        return self._cursor.remaining

    def serve(self, byte_budget: float) -> list[DataMessage]:
        """Stream up to ``byte_budget`` bytes; returns completed messages.

        Bytes of a partially transmitted message persist to the next
        call, mirroring a TCP stream cut into fixed-size records.
        """
        if self._cursor is None:
            raise ProtocolError("no file request accepted yet")
        if byte_budget < 0:
            raise ValueError(f"byte budget cannot be negative: {byte_budget}")
        if self._stopped:
            return []
        taken, budget = self._cursor.take(self._partial_bytes + byte_budget)
        delivered = [DataMessage(msg) for msg in taken]
        self.messages_sent += len(delivered)
        # Leftover budget is progress into the next (unfinished) message;
        # it is only retained while there is something left to send.
        self._partial_bytes = budget if not self._cursor.exhausted else 0.0
        self.bytes_sent += byte_budget
        if _OBS.enabled:
            _SERVE_BYTES.inc(byte_budget)
            if delivered:
                _SERVE_MESSAGES.inc(len(delivered))
        return delivered

    def stop(self, message: StopTransmission) -> None:
        if self._cursor is None:
            return
        self._stopped = True
        self._partial_bytes = 0.0


class DownloadSession:
    """User-side handshake driver for one serving peer."""

    def __init__(self, keypair: KeyPair):
        self._prover = Prover(keypair.private)
        self.authenticated = False
        self.accepted: FileAccept | None = None

    def answer(self, challenge_msg: AuthChallenge) -> AuthResponse:
        return AuthResponse(
            challenge=challenge_msg.challenge,
            response=self._prover.respond(challenge_msg.challenge),
        )

    def handshake(self, serving: ServingSession, file_id: int) -> FileAccept:
        """Run the full steps 1-3 against a peer's serving session."""
        challenge = serving.begin_auth()
        if not serving.complete_auth(self.answer(challenge)):
            raise ProtocolError("authentication rejected by serving peer")
        self.authenticated = True
        self.accepted = serving.accept_request(FileRequest(file_id))
        return self.accepted

    def handshake_with_retry(
        self,
        serving: ServingSession,
        file_id: int,
        attempts: int = 3,
        backoff_slots: int = 1,
        peer: int = -1,
    ) -> tuple[FileAccept | None, int, int]:
        """Bounded handshake retry with linear backoff.

        Returns ``(accept, attempts_used, waited_slots)`` where
        ``accept`` is ``None`` if every attempt was rejected.
        ``waited_slots`` is the cumulative backoff (``backoff_slots``
        after the first failure, twice that after the second, ...) a
        slot-stepped caller should charge before data can flow.
        """
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if backoff_slots < 0:
            raise ValueError(f"backoff_slots cannot be negative: {backoff_slots}")
        waited = 0
        for attempt in range(1, attempts + 1):
            try:
                return self.handshake(serving, file_id), attempt, waited
            except ProtocolError:
                if _OBS.enabled:
                    _HANDSHAKE_RETRIES.inc()
                _TRACER.emit(
                    TRANSFER_RETRY,
                    peer=peer,
                    attempt=attempt,
                    backoff_slots=backoff_slots * attempt,
                )
                if _TRACER.enabled:
                    # Instantaneous span so failed handshakes appear on
                    # the causal tree (parented to the enclosing scope).
                    retry = _spans.start_span(
                        "transfer.retry", peer=peer, attempt=attempt
                    )
                    _spans.finish_span(retry, status="retry")
                waited += backoff_slots * attempt
        return None, attempts, waited
