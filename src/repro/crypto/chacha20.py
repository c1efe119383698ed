"""ChaCha20 stream cipher (RFC 8439 section 2).

Implements the 20-round ChaCha block function and the counter-mode stream
cipher built on it.  Used both directly (record encryption) and as the key
derivation step of Poly1305 (``poly1305_key_gen``).

This module is the scalar reference: pure Python, no numpy.  The
vectorized keystream in ``repro.crypto.chacha20_fast`` must match it bit
for bit, and ``repro.crypto.aead`` decides which of the two a record uses.
"""

from __future__ import annotations

import struct

_MASK32 = 0xFFFFFFFF

# "expand 32-byte k" as four little-endian words (RFC 8439 section 2.3).
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Produce one 64-byte keystream block (RFC 8439 section 2.3).

    The 16 state words live in locals and the 8 quarter rounds of each
    double round are written out, so a block costs no list indexing and
    no per-quarter-round calls.
    """
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    m = _MASK32
    j0, j1, j2, j3 = _CONSTANTS
    j4, j5, j6, j7, j8, j9, j10, j11 = struct.unpack("<8I", key)
    j12 = counter & m
    j13, j14, j15 = struct.unpack("<3I", nonce)
    x0, x1, x2, x3, x4, x5, x6, x7 = j0, j1, j2, j3, j4, j5, j6, j7
    x8, x9, x10, x11, x12, x13, x14, x15 = j8, j9, j10, j11, j12, j13, j14, j15
    for _ in range(10):
        # Column round: quarter rounds on (0,4,8,12) .. (3,7,11,15).
        x0 = (x0 + x4) & m; x12 ^= x0; x12 = (x12 << 16 & m) | x12 >> 16
        x8 = (x8 + x12) & m; x4 ^= x8; x4 = (x4 << 12 & m) | x4 >> 20
        x0 = (x0 + x4) & m; x12 ^= x0; x12 = (x12 << 8 & m) | x12 >> 24
        x8 = (x8 + x12) & m; x4 ^= x8; x4 = (x4 << 7 & m) | x4 >> 25
        x1 = (x1 + x5) & m; x13 ^= x1; x13 = (x13 << 16 & m) | x13 >> 16
        x9 = (x9 + x13) & m; x5 ^= x9; x5 = (x5 << 12 & m) | x5 >> 20
        x1 = (x1 + x5) & m; x13 ^= x1; x13 = (x13 << 8 & m) | x13 >> 24
        x9 = (x9 + x13) & m; x5 ^= x9; x5 = (x5 << 7 & m) | x5 >> 25
        x2 = (x2 + x6) & m; x14 ^= x2; x14 = (x14 << 16 & m) | x14 >> 16
        x10 = (x10 + x14) & m; x6 ^= x10; x6 = (x6 << 12 & m) | x6 >> 20
        x2 = (x2 + x6) & m; x14 ^= x2; x14 = (x14 << 8 & m) | x14 >> 24
        x10 = (x10 + x14) & m; x6 ^= x10; x6 = (x6 << 7 & m) | x6 >> 25
        x3 = (x3 + x7) & m; x15 ^= x3; x15 = (x15 << 16 & m) | x15 >> 16
        x11 = (x11 + x15) & m; x7 ^= x11; x7 = (x7 << 12 & m) | x7 >> 20
        x3 = (x3 + x7) & m; x15 ^= x3; x15 = (x15 << 8 & m) | x15 >> 24
        x11 = (x11 + x15) & m; x7 ^= x11; x7 = (x7 << 7 & m) | x7 >> 25
        # Diagonal round: (0,5,10,15), (1,6,11,12), (2,7,8,13), (3,4,9,14).
        x0 = (x0 + x5) & m; x15 ^= x0; x15 = (x15 << 16 & m) | x15 >> 16
        x10 = (x10 + x15) & m; x5 ^= x10; x5 = (x5 << 12 & m) | x5 >> 20
        x0 = (x0 + x5) & m; x15 ^= x0; x15 = (x15 << 8 & m) | x15 >> 24
        x10 = (x10 + x15) & m; x5 ^= x10; x5 = (x5 << 7 & m) | x5 >> 25
        x1 = (x1 + x6) & m; x12 ^= x1; x12 = (x12 << 16 & m) | x12 >> 16
        x11 = (x11 + x12) & m; x6 ^= x11; x6 = (x6 << 12 & m) | x6 >> 20
        x1 = (x1 + x6) & m; x12 ^= x1; x12 = (x12 << 8 & m) | x12 >> 24
        x11 = (x11 + x12) & m; x6 ^= x11; x6 = (x6 << 7 & m) | x6 >> 25
        x2 = (x2 + x7) & m; x13 ^= x2; x13 = (x13 << 16 & m) | x13 >> 16
        x8 = (x8 + x13) & m; x7 ^= x8; x7 = (x7 << 12 & m) | x7 >> 20
        x2 = (x2 + x7) & m; x13 ^= x2; x13 = (x13 << 8 & m) | x13 >> 24
        x8 = (x8 + x13) & m; x7 ^= x8; x7 = (x7 << 7 & m) | x7 >> 25
        x3 = (x3 + x4) & m; x14 ^= x3; x14 = (x14 << 16 & m) | x14 >> 16
        x9 = (x9 + x14) & m; x4 ^= x9; x4 = (x4 << 12 & m) | x4 >> 20
        x3 = (x3 + x4) & m; x14 ^= x3; x14 = (x14 << 8 & m) | x14 >> 24
        x9 = (x9 + x14) & m; x4 ^= x9; x4 = (x4 << 7 & m) | x4 >> 25
    return struct.pack(
        "<16I",
        (x0 + j0) & m, (x1 + j1) & m, (x2 + j2) & m, (x3 + j3) & m,
        (x4 + j4) & m, (x5 + j5) & m, (x6 + j6) & m, (x7 + j7) & m,
        (x8 + j8) & m, (x9 + j9) & m, (x10 + j10) & m, (x11 + j11) & m,
        (x12 + j12) & m, (x13 + j13) & m, (x14 + j14) & m, (x15 + j15) & m,
    )


def chacha20_encrypt(key: bytes, counter: int, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt (or decrypt) ``plaintext`` in counter mode (RFC 8439 2.4).

    Scalar only: one ``chacha20_block`` per 64 bytes, XORed as one big
    integer.  Callers that want the numpy keystream for long inputs go
    through ``repro.crypto.aead``, which owns the scalar/numpy crossover.
    """
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    length = len(plaintext)
    if not length:
        return b""
    keystream = b"".join(
        chacha20_block(key, counter + index, nonce)
        for index in range((length + 63) // 64)
    )
    return (
        int.from_bytes(plaintext, "little")
        ^ int.from_bytes(keystream[:length], "little")
    ).to_bytes(length, "little")
