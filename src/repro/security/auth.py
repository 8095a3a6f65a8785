"""Classic public-key challenge-response authentication (Fig. 4(b), step 1).

Before a peer serves any stored messages, the requesting user proves
ownership of a registered public key: the peer sends a fresh random
challenge, the user signs it together with a context string, and the
peer verifies.  Mutual authentication (the paper recommends it against
man-in-the-middle / IP-spoofing) simply runs the exchange both ways.

The exchange is modelled as explicit message objects so the simulator's
transfer protocol can carry them, and so tests can tamper with them.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from .keys import KeyPair, PrivateKey, PublicKey

__all__ = [
    "AuthenticationError",
    "Challenge",
    "ChallengeResponse",
    "Verifier",
    "Prover",
    "mutual_authenticate",
]

_NONCE_BYTES = 32


class AuthenticationError(Exception):
    """Raised when a challenge-response exchange fails verification."""


@dataclass(frozen=True)
class Challenge:
    """A fresh nonce bound to a context (e.g. ``"download file 7"``)."""

    nonce: bytes
    context: bytes

    def payload(self) -> bytes:
        return self.context + b"|" + self.nonce


@dataclass(frozen=True)
class ChallengeResponse:
    """The prover's signature over a challenge payload."""

    signature: int


class Verifier:
    """The serving side: issues challenges, verifies responses.

    A verifier only accepts a response to a challenge *it* issued —
    its nonce, under its own context — and that has not been consumed,
    preventing trivial replay and cross-context relay.
    """

    def __init__(self, trusted_key: PublicKey, context: bytes = b"repro-auth"):
        self.trusted_key = trusted_key
        self.context = context
        self._outstanding: set[bytes] = set()

    def issue_challenge(self, rand=None) -> Challenge:
        nonce = (rand or secrets).token_bytes(_NONCE_BYTES)
        self._outstanding.add(nonce)
        return Challenge(nonce=nonce, context=self.context)

    def verify(self, challenge: Challenge, response: ChallengeResponse) -> bool:
        if challenge.nonce not in self._outstanding:
            return False
        self._outstanding.discard(challenge.nonce)  # single use
        if challenge.context != self.context:
            # The wire hands back the challenge as the prover echoed it:
            # our nonce signed under another context is not an answer to us.
            return False
        return self.trusted_key.verify(challenge.payload(), response.signature)

    def require(self, challenge: Challenge, response: ChallengeResponse) -> None:
        if not self.verify(challenge, response):
            raise AuthenticationError("challenge-response verification failed")


class Prover:
    """The requesting side: answers challenges with its private key."""

    def __init__(self, private_key: PrivateKey):
        self.private_key = private_key

    def respond(self, challenge: Challenge) -> ChallengeResponse:
        return ChallengeResponse(self.private_key.sign(challenge.payload()))


def mutual_authenticate(a: KeyPair, b: KeyPair) -> bool:
    """Run the exchange in both directions; ``True`` iff both succeed.

    This is the paper's "ideally, this authentication should go both
    ways" variant, used by the transfer protocol when configured for
    mutual mode.
    """
    verifier_b = Verifier(a.public, context=b"a->b")
    challenge = verifier_b.issue_challenge()
    if not verifier_b.verify(challenge, Prover(a.private).respond(challenge)):
        return False
    verifier_a = Verifier(b.public, context=b"b->a")
    challenge = verifier_a.issue_challenge()
    return verifier_a.verify(challenge, Prover(b.private).respond(challenge))
