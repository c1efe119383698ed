"""X25519 Diffie-Hellman key agreement (RFC 7748).

Montgomery-ladder scalar multiplication over Curve25519 for a peer's
u-coordinate.  Key generation multiplies the fixed base point u = 9,
which is the image of the Ed25519 base point B under the birational
map ``u = (1 + y) / (1 - y)``, so it reuses Ed25519's fixed-base table
and maps the result to Montgomery form; the result is the same
u-coordinate the ladder computes.  Validated against the RFC 7748
section 5.2 test vectors and the ladder in ``tests/crypto``.
"""

from __future__ import annotations

from repro.crypto.ed25519 import _base_mul

_P = 2**255 - 19
_A24 = 121665


def _clamp_scalar(scalar_bytes: bytes) -> int:
    if len(scalar_bytes) != 32:
        raise ValueError("X25519 scalar must be 32 bytes")
    scalar = bytearray(scalar_bytes)
    scalar[0] &= 248
    scalar[31] &= 127
    scalar[31] |= 64
    return int.from_bytes(scalar, "little")


def _decode_u_coordinate(u_bytes: bytes) -> int:
    if len(u_bytes) != 32:
        raise ValueError("X25519 u-coordinate must be 32 bytes")
    u = bytearray(u_bytes)
    u[31] &= 127  # mask the unused high bit per RFC 7748 section 5
    return int.from_bytes(u, "little")


def _ladder(scalar: int, u: int) -> int:
    """Constant-structure Montgomery ladder (RFC 7748 section 5)."""
    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for bit_index in range(254, -1, -1):
        bit = (scalar >> bit_index) & 1
        if swap ^ bit:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = bit

        # Sums and differences stay unreduced: every product below is
        # reduced mod p, and squares are plain products (cheaper than pow).
        a = x2 + z2
        aa = a * a % _P
        b = x2 - z2
        bb = b * b % _P
        e = aa - bb
        da = (x3 - z3) * a % _P
        cb = (x3 + z3) * b % _P
        t = da + cb
        x3 = t * t % _P
        t = da - cb
        z3 = x1 * t * t % _P
        x2 = aa * bb % _P
        z2 = e * (aa + _A24 * e) % _P

    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    return (x2 * pow(z2, _P - 2, _P)) % _P


def x25519(scalar_bytes: bytes, u_bytes: bytes) -> bytes:
    """Scalar-multiply a public u-coordinate; returns 32 bytes."""
    scalar = _clamp_scalar(scalar_bytes)
    u = _decode_u_coordinate(u_bytes)
    return _ladder(scalar, u).to_bytes(32, "little")


def x25519_base(scalar_bytes: bytes) -> bytes:
    """Compute the public key for a private scalar (scalar * base point 9)."""
    _, y, z, _ = _base_mul(_clamp_scalar(scalar_bytes))
    # The identity (y = z) maps to u = 0, as the ladder returns for it.
    return ((z + y) * pow(z - y, _P - 2, _P) % _P).to_bytes(32, "little")


class X25519PrivateKey:
    """Convenience wrapper pairing a private scalar with its public key."""

    def __init__(self, private_bytes: bytes) -> None:
        if len(private_bytes) != 32:
            raise ValueError("X25519 private key must be 32 bytes")
        self._private = bytes(private_bytes)
        self.public_bytes = x25519_base(self._private)

    def exchange(self, peer_public: bytes) -> bytes:
        """Compute the shared secret with a peer's public key."""
        shared = x25519(self._private, peer_public)
        if shared == b"\x00" * 32:
            raise ValueError("X25519 produced an all-zero shared secret")
        return shared
