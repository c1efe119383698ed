"""Differential oracle: our ChaCha20-Poly1305 against ``cryptography``'s.

The RFC vectors pin a handful of inputs; this file checks seeded random
keys, nonces, AAD and sizes (0-16400, every ChaCha20 and Poly1305 size
threshold included) byte for byte against an independent implementation,
both through the AEAD object and through a ``CipherState`` record series
(nonce ``iv XOR sequence``, readahead windows included).  It skips
cleanly when ``cryptography`` is not installed.
"""

import random

import pytest

oracle = pytest.importorskip("cryptography.hazmat.primitives.ciphers.aead")

from repro import fastpath  # noqa: E402
from repro.crypto import aead as _aead  # noqa: E402
from repro.crypto.aead import TAG_LENGTH, ChaCha20Poly1305  # noqa: E402
from repro.crypto.keyschedule import TrafficKeys  # noqa: E402
from repro.crypto.poly1305_fast import MIN_BATCH_BYTES  # noqa: E402
from repro.tls.record import MAX_PLAINTEXT, CipherState, ContentType, record_header  # noqa: E402
from repro.utils.errors import CryptoError  # noqa: E402

_RNG = random.Random(0x0AC1E)

#: Every size threshold the AEAD path has, +-1 byte: the scalar/numpy
#: crossover for seal (one-time key block + payload) and for open
#: (payload only), the batched Poly1305 minimum, and the record ceiling.
_EDGES = sorted({
    max(edge + delta, 0)
    for edge in (
        0, 64,
        64 * (_aead.NUMPY_MIN_BLOCKS - 1), 64 * _aead.NUMPY_MIN_BLOCKS,
        MIN_BATCH_BYTES, MAX_PLAINTEXT, 16400,
    )
    for delta in (-1, 0, 1)
    if edge + delta <= 16400
})
SIZES = _EDGES + [_RNG.randrange(0, 16401) for _ in range(40)]


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "scalar"])
def test_aead_matches_oracle(batched):
    with fastpath.overridden("crypto.batch", batched):
        for size in SIZES:
            key = _RNG.randbytes(32)
            nonce = _RNG.randbytes(12)
            aad = _RNG.randbytes(_RNG.randrange(0, 40))
            plaintext = _RNG.randbytes(size)
            ours = ChaCha20Poly1305(key)
            theirs = oracle.ChaCha20Poly1305(key)
            sealed = theirs.encrypt(nonce, plaintext, aad)
            assert ours.encrypt(nonce, plaintext, aad) == sealed, size
            assert ours.decrypt(nonce, sealed, aad) == plaintext, size
            tampered = bytearray(sealed)
            tampered[_RNG.randrange(len(tampered))] ^= 1 << _RNG.randrange(8)
            with pytest.raises(CryptoError):
                ours.decrypt(nonce, bytes(tampered), aad)


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "scalar"])
def test_record_series_matches_oracle(batched):
    # A steady run reaches the longest readahead window; the mixed tail
    # opens and abandons windows of every size.
    sizes = [MAX_PLAINTEXT - 1] * 40 + [_RNG.choice(SIZES) % MAX_PLAINTEXT for _ in range(60)]
    keys = TrafficKeys.from_secret(_RNG.randbytes(32))
    theirs = oracle.ChaCha20Poly1305(keys.key)
    iv = int.from_bytes(keys.iv, "big")
    with fastpath.overridden("crypto.batch", batched):
        sender = CipherState(keys)
        receiver = CipherState(keys)
        for seq, size in enumerate(sizes):
            inner = _RNG.randbytes(size) + bytes([ContentType.APPLICATION_DATA])
            aad = record_header(ContentType.APPLICATION_DATA, len(inner) + TAG_LENGTH)
            nonce = (iv ^ seq).to_bytes(12, "big")
            expected = theirs.encrypt(nonce, inner, aad)
            assert sender.seal(inner, aad) == expected, seq
            sender.advance()
            assert receiver.open(expected, aad) == inner, seq
            receiver.advance()
