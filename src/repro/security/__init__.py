"""Security substrate: keyed PRNG, RSA challenge-response, message integrity.

Implements the three security mechanisms of Section III:

* coefficient secrecy — :class:`~repro.security.prng.KeyedStream`
  regenerates coding coefficients from ``(secret, file id, message id)``
  so they never travel on the wire;
* peer/user authentication — :mod:`repro.security.auth` runs a classic
  public-key challenge-response over :mod:`repro.security.keys` RSA;
* message authenticity — :class:`~repro.security.integrity.DigestStore`
  keeps the owner-side MD5 digests that defeat fake-message injection.
"""

from .auth import (
    AuthenticationError,
    Challenge,
    ChallengeResponse,
    Prover,
    Verifier,
    mutual_authenticate,
)
from .integrity import DIGEST_ALGORITHMS, DigestStore, IntegrityError
from .keys import (
    KeyPair,
    PrivateKey,
    PrivateKeyFault,
    PublicKey,
    generate_keypair,
    is_probable_prime,
)
from .merkle import MerkleDigestIndex, MerkleProof, MerkleVerifier, merkle_root
from .prng import SUPPORTED_SYMBOL_BITS, KeyedStream, derive_key

__all__ = [
    "KeyedStream",
    "derive_key",
    "SUPPORTED_SYMBOL_BITS",
    "KeyPair",
    "PublicKey",
    "PrivateKey",
    "PrivateKeyFault",
    "generate_keypair",
    "is_probable_prime",
    "AuthenticationError",
    "Challenge",
    "ChallengeResponse",
    "Prover",
    "Verifier",
    "mutual_authenticate",
    "DigestStore",
    "IntegrityError",
    "DIGEST_ALGORITHMS",
    "MerkleDigestIndex",
    "MerkleProof",
    "MerkleVerifier",
    "merkle_root",
]
