"""Unit tests for challenge-response authentication."""

import pytest

from repro.security import (
    AuthenticationError,
    Challenge,
    Prover,
    Verifier,
    generate_keypair,
    mutual_authenticate,
)


@pytest.fixture(scope="module")
def alice():
    return generate_keypair(bits=512, seed=100)


@pytest.fixture(scope="module")
def mallory():
    return generate_keypair(bits=512, seed=666)


class TestHappyPath:
    def test_valid_exchange(self, alice):
        verifier = Verifier(alice.public)
        challenge = verifier.issue_challenge()
        response = Prover(alice.private).respond(challenge)
        assert verifier.verify(challenge, response)

    def test_require_passes(self, alice):
        verifier = Verifier(alice.public)
        challenge = verifier.issue_challenge()
        verifier.require(challenge, Prover(alice.private).respond(challenge))

    def test_mutual(self, alice, mallory):
        bob = generate_keypair(bits=512, seed=101)
        assert mutual_authenticate(alice, bob)


class TestAttacks:
    def test_wrong_key_rejected(self, alice, mallory):
        verifier = Verifier(alice.public)
        challenge = verifier.issue_challenge()
        forged = Prover(mallory.private).respond(challenge)
        assert not verifier.verify(challenge, forged)

    def test_replay_rejected(self, alice):
        verifier = Verifier(alice.public)
        challenge = verifier.issue_challenge()
        response = Prover(alice.private).respond(challenge)
        assert verifier.verify(challenge, response)
        # Second presentation of the same (challenge, response) fails.
        assert not verifier.verify(challenge, response)

    def test_self_made_challenge_rejected(self, alice):
        verifier = Verifier(alice.public)
        fake = Challenge(nonce=b"\x00" * 32, context=verifier.context)
        response = Prover(alice.private).respond(fake)
        assert not verifier.verify(fake, response)

    def test_context_binding(self, alice):
        """A response for one context must not validate another context's
        challenge with the same nonce."""
        v1 = Verifier(alice.public, context=b"download file A")
        c1 = v1.issue_challenge()
        cross = Challenge(nonce=c1.nonce, context=b"delete file A")
        response = Prover(alice.private).respond(cross)
        assert not v1.verify(c1, response)

    def test_echoed_challenge_under_another_context_rejected(self, alice):
        """The wire hands the verifier the challenge as the prover echoed
        it: its own nonce signed under a different context must fail, and
        the nonce is spent all the same."""
        v1 = Verifier(alice.public, context=b"download file A")
        c1 = v1.issue_challenge()
        cross = Challenge(nonce=c1.nonce, context=b"delete file A")
        assert not v1.verify(cross, Prover(alice.private).respond(cross))
        assert not v1.verify(c1, Prover(alice.private).respond(c1))

    def test_require_raises(self, alice, mallory):
        verifier = Verifier(alice.public)
        challenge = verifier.issue_challenge()
        forged = Prover(mallory.private).respond(challenge)
        with pytest.raises(AuthenticationError):
            verifier.require(challenge, forged)

    def test_mutual_fails_with_imposter(self, alice, mallory):
        # Mallory claims to be Bob but holds her own private key.
        bob = generate_keypair(bits=512, seed=101)
        from repro.security import KeyPair

        imposter = KeyPair(bob.public, mallory.private)
        assert not mutual_authenticate(alice, imposter)


class TestChallengeProperties:
    def test_nonces_unique(self, alice):
        verifier = Verifier(alice.public)
        nonces = {verifier.issue_challenge().nonce for _ in range(100)}
        assert len(nonces) == 100

    def test_payload_binds_context_and_nonce(self):
        c = Challenge(nonce=b"N" * 32, context=b"ctx")
        assert b"ctx" in c.payload()
        assert b"N" * 32 in c.payload()
