"""Pure-Python RSA key material for the challenge-response handshake.

Section III-B authenticates a downloading user to a serving peer "using
a classic public-key challenge response system".  The paper does not fix
a primitive, so we implement textbook RSA signatures over hashed
challenges — enough to exercise the exact protocol code path.  Key sizes
are configurable; tests use small keys for speed, and nothing in the
protocol depends on the size.

The private-key operation — nearly all the cost of a handshake at these
key sizes — is the textbook Chinese-remainder exponentiation: two half-width
powers modulo ``p`` and ``q`` joined by Garner's recombination, then
checked against the public exponent before the value is released.  Its
results are exactly those of ``x**d mod n``.

This module is a *substrate for the reproduction*, not a hardened
cryptographic library: it implements the textbook algorithms faithfully
(Miller-Rabin generation, hashed-message signatures, CRT signing) but
skips padding schemes (OAEP/PSS) and constant-time arithmetic that a
production deployment would add.
"""

from __future__ import annotations

import hashlib
import secrets
import struct
from dataclasses import dataclass

from .prng import derive_key

__all__ = [
    "PublicKey",
    "PrivateKey",
    "KeyPair",
    "PrivateKeyFault",
    "generate_keypair",
    "is_probable_prime",
]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)


def is_probable_prime(n: int, rounds: int = 40, rand=None) -> bool:
    """Miller-Rabin primality test with ``rounds`` random witnesses."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rand = rand if rand is not None else secrets.SystemRandom()
    for _ in range(rounds):
        a = rand.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


class _KeyedRandom:
    """The slice of the ``random.Random`` API key generation needs,
    drawn from a keyed SHA-256 counter stream.

    Seeded key generation must be replayable *and* come from the
    repository's one keyed entropy construction (the same counter-mode
    stream as :mod:`repro.security.prng`), not from stdlib ``random`` —
    Mersenne Twister output is predictable from its own history, which
    is exactly the wrong primitive to grow RSA primes from.
    """

    def __init__(self, key: bytes):
        self._key = key
        self._counter = 0
        self._buffer = b""

    def _take(self, count: int) -> bytes:
        while len(self._buffer) < count:
            self._buffer += hashlib.sha256(
                self._key + struct.pack(">Q", self._counter)
            ).digest()
            self._counter += 1
        out, self._buffer = self._buffer[:count], self._buffer[count:]
        return out

    def getrandbits(self, k: int) -> int:
        if k <= 0:
            raise ValueError(f"number of bits must be positive, got {k}")
        nbytes = (k + 7) // 8
        return int.from_bytes(self._take(nbytes), "big") >> (nbytes * 8 - k)

    def randrange(self, start: int, stop: int | None = None) -> int:
        if stop is None:
            start, stop = 0, start
        span = stop - start
        if span <= 0:
            raise ValueError(f"empty range for randrange ({start}, {stop})")
        k = span.bit_length()
        while True:  # rejection sampling keeps the draw exactly uniform
            value = self.getrandbits(k)
            if value < span:
                return start + value


def _random_prime(bits: int, rand) -> int:
    while True:
        candidate = rand.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rand=rand):
            return candidate


@dataclass(frozen=True)
class PublicKey:
    """RSA public key ``(n, e)``; verifies signatures and encrypts."""

    n: int
    e: int

    def verify(self, message: bytes, signature: int) -> bool:
        """Check a signature over ``SHA256(message)``."""
        if not 0 < signature < self.n:
            return False
        digest = int.from_bytes(hashlib.sha256(message).digest(), "big") % self.n
        return pow(signature, self.e, self.n) == digest

    def encrypt(self, value: int) -> int:
        if not 0 <= value < self.n:
            raise ValueError("plaintext out of range for this modulus")
        return pow(value, self.e, self.n)

    def fingerprint(self) -> str:
        """Short stable identifier for logging and peer directories."""
        material = self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")
        return hashlib.sha256(material).hexdigest()[:16]


class PrivateKeyFault(ArithmeticError):
    """The private-key operation produced a value that fails the public
    check; nothing was released."""


@dataclass(frozen=True, repr=False)
class PrivateKey:
    """RSA private key ``(n, d)`` with its primes; signs and decrypts.

    The CRT exponents ``d mod (p-1)``, ``d mod (q-1)`` and ``q**-1 mod p``
    are derived once here and are not dataclass fields: they take no part
    in ``==``, ``hash`` or ``repr``.
    """

    n: int
    d: int
    p: int
    q: int
    e: int

    def __post_init__(self):
        if not (1 < self.p < self.n and self.p * self.q == self.n):
            raise ValueError("p and q are not a non-trivial factorisation of the modulus")
        object.__setattr__(self, "_dp", self.d % (self.p - 1))
        object.__setattr__(self, "_dq", self.d % (self.q - 1))
        object.__setattr__(self, "_qinv", pow(self.q, -1, self.p))

    def __repr__(self) -> str:
        # Key material stays out of logs, assertion diffs and tracebacks.
        fingerprint = PublicKey(self.n, self.e).fingerprint()
        return f"PrivateKey({self.n.bit_length()} bits, fingerprint={fingerprint})"

    def _private_op(self, x: int) -> int:
        """``x**d mod n`` for ``0 <= x < n``, by the CRT.

        The result is checked with the public exponent before it is
        returned: one faulted half-width power would otherwise hand the
        verifier ``gcd(s**e - x, n)``, a prime factor of ``n``
        (Boneh-DeMillo-Lipton).
        """
        m1 = pow(x % self.p, self._dp, self.p)
        m2 = pow(x % self.q, self._dq, self.q)
        result = m2 + self.q * ((self._qinv * (m1 - m2)) % self.p)
        if pow(result, self.e, self.n) != x:
            raise PrivateKeyFault("private-key result failed the public-exponent check")
        return result

    def sign(self, message: bytes) -> int:
        digest = int.from_bytes(hashlib.sha256(message).digest(), "big") % self.n
        return self._private_op(digest)

    def decrypt(self, value: int) -> int:
        if not 0 <= value < self.n:
            raise ValueError("ciphertext out of range for this modulus")
        return self._private_op(value)


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    private: PrivateKey


def generate_keypair(bits: int = 1024, seed: int | None = None) -> KeyPair:
    """Generate an RSA key pair with modulus of roughly ``bits`` bits.

    ``seed`` makes generation deterministic (tests and reproducible
    simulations) by keying a SHA-256 counter stream from it; production
    use leaves it ``None`` for OS entropy.
    """
    if bits < 64:
        raise ValueError(f"modulus too small to be meaningful: {bits} bits")
    if seed is not None:
        key = derive_key(b"repro.security.keys", "rsa-keygen", str(seed))
        rand = _KeyedRandom(key)
    else:
        rand = secrets.SystemRandom()
    e = 65537
    while True:
        p = _random_prime(bits // 2, rand)
        q = _random_prime(bits - bits // 2, rand)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        n = p * q
        d = pow(e, -1, phi)
        return KeyPair(PublicKey(n, e), PrivateKey(n, d, p, q, e))
