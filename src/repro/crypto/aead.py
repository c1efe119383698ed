"""ChaCha20-Poly1305 AEAD construction (RFC 8439 section 2.8).

This is the single cipher suite the TLS stack uses
(``TLS_CHACHA20_POLY1305_SHA256``).  Decryption failures raise
``CryptoError`` — TCPLS counts those as forgery attempts when doing
trial decryption across per-stream contexts (paper section 2.3).

Fast path (``fastpath`` feature ``crypto.batch``): this module is the one
place that chooses between the scalar ChaCha20 block function and a
numpy keystream pass, for seal and open alike, by one measured crossover
(``NUMPY_MIN_BLOCKS``).  A seal of that many blocks or more takes the
one-time key and the payload keystream from a single numpy pass (blocks
0..n).  An open always checks the tag first, with a one-block scalar
one-time key, and only then generates the payload keystream, so a failed
trial decryption costs one block and the MAC.  Tags of long inputs go
through the batched Poly1305.  The scalar construction is the reference;
both produce bit-identical output, and the scalar path is the only one
when numpy is missing or the flag is off.

``seal_with_keystream`` / ``open_with_keystream`` let the record layer
supply keystream it generated for several records at once (the
readahead window in ``repro.tls.record``), which uses the same crossover.
"""

from __future__ import annotations

import struct

from repro import fastpath
from repro.crypto.chacha20 import chacha20_encrypt
from repro.crypto.poly1305 import constant_time_equal, poly1305_key_gen, poly1305_mac
from repro.crypto.poly1305_fast import MIN_BATCH_BYTES, poly1305_mac_fast
from repro.utils.errors import CryptoError

try:  # numpy is baked into the image, but the scalar path must survive
    from repro.crypto.chacha20_fast import chacha20_keystream, xor_keystream

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via fastpath flags
    HAVE_NUMPY = False

TAG_LENGTH = 16
KEY_LENGTH = 32
NONCE_LENGTH = 12

#: Keystream blocks from which one numpy pass is cheaper than that many
#: scalar ``chacha20_block`` calls: the only ChaCha20 size threshold.
#: Measured on a 2-core x86-64 VM (Python 3.11, numpy 2.4): a scalar
#: block costs 0.075-0.09 ms and a numpy pass 0.40-0.50 ms at 1-64 blocks
#: (0.5-0.8 ms at 257).  Timing ``encrypt`` and ``decrypt`` with the
#: ChaCha20 part forced each way (min of 15 alternating rounds, 2-11
#: blocks), the two tie at 5 blocks and numpy is ahead from 6 on, for
#: seal and open alike.
NUMPY_MIN_BLOCKS = 6


def _pad16(data: bytes) -> bytes:
    if len(data) % 16 == 0:
        return b""
    return b"\x00" * (16 - len(data) % 16)


def _auth_input(aad: bytes, ciphertext: bytes) -> bytes:
    return b"".join(
        (
            aad,
            _pad16(aad),
            ciphertext,
            _pad16(ciphertext),
            struct.pack("<QQ", len(aad), len(ciphertext)),
        )
    )


def _mac(otk: bytes, data: bytes) -> bytes:
    """Tag via the batched Poly1305 when it is worth it, scalar otherwise."""
    if len(data) >= MIN_BATCH_BYTES and fastpath.enabled("crypto.batch"):
        return poly1305_mac_fast(otk, data)
    return poly1305_mac(otk, data)


def use_numpy(n_blocks: int) -> bool:
    """True when ``n_blocks`` of keystream should come from one numpy pass."""
    return (
        n_blocks >= NUMPY_MIN_BLOCKS
        and HAVE_NUMPY
        and fastpath.flags["crypto.batch"]
    )


def _verify(otk: bytes, data: bytes, aad: bytes) -> bytes:
    """The ciphertext part of ``data`` once its tag verifies under ``otk``."""
    if len(data) < TAG_LENGTH:
        raise CryptoError("ciphertext shorter than the AEAD tag")
    ciphertext, tag = data[:-TAG_LENGTH], data[-TAG_LENGTH:]
    if not constant_time_equal(tag, _mac(otk, _auth_input(aad, ciphertext))):
        raise CryptoError("AEAD tag verification failed")
    return ciphertext


def seal_with_keystream(keystream, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt + tag using externally supplied keystream bytes.

    ``keystream`` must hold at least ``64 + len(plaintext)`` bytes of the
    ChaCha20 stream for this record's nonce starting at block 0 (block 0
    yields the Poly1305 one-time key, blocks 1.. the payload stream).
    Output is bit-identical to ``ChaCha20Poly1305.encrypt``.
    """
    otk = bytes(keystream[:32])
    ciphertext = xor_keystream(plaintext, keystream[64 : 64 + len(plaintext)])
    tag = _mac(otk, _auth_input(aad, ciphertext))
    return ciphertext + tag


def open_with_keystream(keystream, data: bytes, aad: bytes = b"") -> bytes:
    """Verify + decrypt using externally supplied keystream bytes."""
    ciphertext = _verify(bytes(keystream[:32]), data, aad)
    return xor_keystream(ciphertext, keystream[64 : 64 + len(ciphertext)])


class ChaCha20Poly1305:
    """AEAD cipher object bound to one 32-byte key."""

    key_length = KEY_LENGTH
    nonce_length = NONCE_LENGTH
    tag_length = TAG_LENGTH

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_LENGTH:
            raise ValueError("ChaCha20-Poly1305 key must be 32 bytes")
        self._key = bytes(key)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ciphertext || 16-byte tag."""
        if len(nonce) != NONCE_LENGTH:
            raise ValueError("nonce must be 12 bytes")
        n_blocks = 1 + (len(plaintext) + 63) // 64
        if use_numpy(n_blocks):
            # Block 0 (the one-time key) and the payload blocks together.
            keystream = chacha20_keystream(self._key, 0, nonce, n_blocks)
            return seal_with_keystream(keystream, plaintext, aad)
        otk = poly1305_key_gen(self._key, nonce)
        ciphertext = chacha20_encrypt(self._key, 1, nonce, plaintext)
        return ciphertext + _mac(otk, _auth_input(aad, ciphertext))

    def verify(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Check the tag of ``data`` (ciphertext || tag) with a one-block
        one-time key; return the ciphertext or raise ``CryptoError``."""
        if len(nonce) != NONCE_LENGTH:
            raise ValueError("nonce must be 12 bytes")
        return _verify(poly1305_key_gen(self._key, nonce), data, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext, or raise ``CryptoError``.

        The tag is verified before any payload keystream is generated, so
        a failed trial decryption costs one scalar block and the MAC.
        """
        ciphertext = self.verify(nonce, data, aad)
        n_blocks = (len(ciphertext) + 63) // 64
        if use_numpy(n_blocks):
            keystream = chacha20_keystream(self._key, 1, nonce, n_blocks)
            return xor_keystream(ciphertext, keystream)
        return chacha20_encrypt(self._key, 1, nonce, ciphertext)
