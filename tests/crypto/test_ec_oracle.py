"""Differential oracle: our X25519 and Ed25519 against ``cryptography``'s.

The RFC vectors pin a handful of keys; this file checks seeded random
keys, peer u-coordinates and messages of 0-2 KiB byte for byte against
an independent implementation: X25519 public keys and shared secrets,
Ed25519 public keys and signatures, verification in both directions,
and rejection of every single-bit flip of a signature.  It skips
cleanly when ``cryptography`` is not installed.
"""

import random

import pytest

pytest.importorskip("cryptography")

from cryptography.exceptions import InvalidSignature  # noqa: E402
from cryptography.hazmat.primitives.asymmetric import ed25519 as oracle_ed  # noqa: E402
from cryptography.hazmat.primitives.asymmetric import x25519 as oracle_x  # noqa: E402

from repro.crypto.ed25519 import (  # noqa: E402
    Ed25519PrivateKey,
    ed25519_public_key,
    ed25519_sign,
    ed25519_verify,
)
from repro.crypto.x25519 import x25519, x25519_base  # noqa: E402

_RNG = random.Random(0xEC25519)
MESSAGE_SIZES = [0, 1, 63, 64, 1024, 2048] + [_RNG.randrange(0, 2049) for _ in range(18)]


def _oracle_verifies(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        oracle_ed.Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except InvalidSignature:
        return False
    return True


def test_x25519_matches_oracle():
    for _ in range(32):
        secret = _RNG.randbytes(32)
        theirs = oracle_x.X25519PrivateKey.from_private_bytes(secret)
        public = x25519_base(secret)
        assert public == theirs.public_key().public_bytes_raw()
        peer = oracle_x.X25519PrivateKey.from_private_bytes(_RNG.randbytes(32))
        peer_public = peer.public_key().public_bytes_raw()
        assert x25519(secret, peer_public) == theirs.exchange(
            oracle_x.X25519PublicKey.from_public_bytes(peer_public)
        )
        assert x25519(secret, peer_public) == peer.exchange(
            oracle_x.X25519PublicKey.from_public_bytes(public)
        )
        # Arbitrary u-coordinates (twist points, top bit set) take the
        # same ladder and masking on both sides.
        u = _RNG.randbytes(32)
        assert x25519(secret, u) == theirs.exchange(oracle_x.X25519PublicKey.from_public_bytes(u))


def test_ed25519_matches_oracle():
    for size in MESSAGE_SIZES:
        seed = _RNG.randbytes(32)
        message = _RNG.randbytes(size)
        theirs = oracle_ed.Ed25519PrivateKey.from_private_bytes(seed)
        public = theirs.public_key().public_bytes_raw()
        assert ed25519_public_key(seed) == public, size
        assert Ed25519PrivateKey(seed).public_bytes == public, size
        signature = theirs.sign(message)
        assert ed25519_sign(seed, message) == signature, size
        assert Ed25519PrivateKey(seed).sign(message) == signature, size
        assert ed25519_verify(public, message, signature), size
        assert _oracle_verifies(public, message, ed25519_sign(seed, message)), size


def test_both_reject_every_single_bit_flip():
    for size in (0, 2048):
        seed = _RNG.randbytes(32)
        message = _RNG.randbytes(size)
        key = Ed25519PrivateKey(seed)
        signature = key.sign(message)
        for bit in range(len(signature) * 8):
            flipped = bytearray(signature)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert not ed25519_verify(key.public_bytes, message, bytes(flipped)), bit
            assert not _oracle_verifies(key.public_bytes, message, bytes(flipped)), bit
