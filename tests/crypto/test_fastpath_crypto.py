"""Randomized cross-checks: every crypto fast path vs its scalar reference.

The fast paths are only allowed to exist because they are bit-identical
to the scalar implementations.  These tests are the enforcement: random
keys/messages (seeded — failures reproduce), boundary sizes around every
group/block/window edge, and both the numpy and the pure-int group
evaluators of the batched Poly1305.

The CI perf-smoke job fails if any test here is *skipped*, so none of
them may depend on optional machinery without a hard reason.
"""

import random

import pytest

from repro import fastpath
from repro.crypto import aead as _aead
from repro.crypto import poly1305_fast as _poly_fast
from repro.crypto.aead import ChaCha20Poly1305, TAG_LENGTH
from repro.crypto.chacha20 import chacha20_block, chacha20_encrypt
from repro.crypto.keyschedule import TrafficKeys
from repro.crypto.poly1305 import constant_time_equal, poly1305_mac
from repro.crypto.poly1305_fast import poly1305_mac_fast
from repro.tls import record as _record_layer
from repro.tls.record import (
    LOOKAHEAD_RECORDS,
    MAX_PLAINTEXT,
    CipherState,
    ContentType,
    record_header,
)
from repro.utils.errors import CryptoError

_RNG = random.Random(0x7C9)

#: Sizes straddling every boundary in the batched code: the empty and
#: sub-block cases, the 16-byte block edge, the 512-byte MIN_BATCH edge,
#: the 1024-byte group edge (64 blocks x 16 bytes), and the TLS record
#: ceiling.
BOUNDARY_SIZES = (
    0, 1, 15, 16, 17, 31, 32, 511, 512, 513,
    1023, 1024, 1025, 2047, 2048, 4096, 16384, 16400,
)


#: Payload sizes whose keystream lies one block below, at and one block
#: above the scalar/numpy crossover, for seal (one-time key block plus
#: payload blocks) and for open (payload blocks), each +-1 byte.
CROSSOVER_SIZES = tuple(sorted({
    64 * blocks + delta
    for blocks in range(_aead.NUMPY_MIN_BLOCKS - 3, _aead.NUMPY_MIN_BLOCKS + 2)
    for delta in (-1, 0, 1)
    if 64 * blocks + delta >= 0
}))


def _random_bytes(n: int) -> bytes:
    return _RNG.randbytes(n)


# ----------------------------------------------------------------------
# Poly1305
# ----------------------------------------------------------------------

def test_poly1305_fast_matches_reference_on_boundaries():
    for size in BOUNDARY_SIZES:
        key = _random_bytes(32)
        message = _random_bytes(size)
        assert poly1305_mac_fast(key, message) == poly1305_mac(key, message), size


def test_poly1305_fast_matches_reference_randomized():
    for _ in range(150):
        key = _random_bytes(32)
        message = _random_bytes(_RNG.randrange(0, 20000))
        assert poly1305_mac_fast(key, message) == poly1305_mac(key, message)


def test_poly1305_pure_int_group_path(monkeypatch):
    """The no-numpy fallback evaluator must agree bit-for-bit too."""
    monkeypatch.setattr(_poly_fast, "HAVE_NUMPY", False)
    for size in BOUNDARY_SIZES:
        key = _random_bytes(32)
        message = _random_bytes(size)
        assert poly1305_mac_fast(key, message) == poly1305_mac(key, message), size
    for _ in range(50):
        key = _random_bytes(32)
        message = _random_bytes(_RNG.randrange(0, 20000))
        assert poly1305_mac_fast(key, message) == poly1305_mac(key, message)


def test_poly1305_group_evaluators_agree():
    """numpy and pure-int group folds are interchangeable."""
    if not _poly_fast.HAVE_NUMPY:
        pytest.skip("numpy unavailable: only one group evaluator exists")
    for size in (1024, 2048, 4096, 16384):
        r = int.from_bytes(_random_bytes(16), "little") & _poly_fast._R_CLAMP
        powers = _poly_fast._powers_of_r(r)
        view = memoryview(_random_bytes(size))
        assert _poly_fast._grouped_numpy(
            view, size, powers, powers[0]
        ) == _poly_fast._grouped_int(view, size, powers, powers[0])


def test_poly1305_accepts_memoryview():
    key = _random_bytes(32)
    message = _random_bytes(5000)
    assert poly1305_mac_fast(key, memoryview(message)) == poly1305_mac(key, message)


def test_constant_time_equal_is_compare_digest():
    assert constant_time_equal(b"abc", b"abc")
    assert not constant_time_equal(b"abc", b"abd")
    assert not constant_time_equal(b"abc", b"abcd")
    # Reference semantics of the original per-byte loop: equal iff same
    # length and same content.
    for _ in range(50):
        a = _random_bytes(_RNG.randrange(0, 64))
        b = bytearray(a)
        if b and _RNG.random() < 0.7:
            b[_RNG.randrange(len(b))] ^= 1 << _RNG.randrange(8)
        assert constant_time_equal(a, bytes(b)) == (a == bytes(b))


# ----------------------------------------------------------------------
# ChaCha20 keystream batching
# ----------------------------------------------------------------------

def test_chacha20_keystream_multi_matches_block():
    if not _aead.HAVE_NUMPY:
        pytest.skip("numpy unavailable: no vectorized keystream")
    from repro.crypto.chacha20_fast import chacha20_keystream_multi

    key = _random_bytes(32)
    nonces = [_random_bytes(12) for _ in range(5)]
    blocks_per_nonce = 4
    stream = chacha20_keystream_multi(key, nonces, 0, blocks_per_nonce)
    assert len(stream) == len(nonces) * blocks_per_nonce * 64
    for n_index, nonce in enumerate(nonces):
        for b_index in range(blocks_per_nonce):
            offset = (n_index * blocks_per_nonce + b_index) * 64
            assert stream[offset : offset + 64] == chacha20_block(
                key, b_index, nonce
            ), (n_index, b_index)


def test_chacha20_encrypt_batch_matches_scalar():
    # Scalar leg: chacha20_encrypt, which never touches numpy.  Batched
    # leg: one numpy keystream pass XORed in.
    if not _aead.HAVE_NUMPY:
        pytest.skip("numpy unavailable: no vectorized keystream")
    from repro.crypto.chacha20_fast import chacha20_keystream, xor_keystream

    for size in (0, 1, 63, 64, 65, 512, 4096, *CROSSOVER_SIZES):
        key = _random_bytes(32)
        nonce = _random_bytes(12)
        plaintext = _random_bytes(size)
        scalar = chacha20_encrypt(key, 1, nonce, plaintext)
        n_blocks = (size + 63) // 64
        batched = xor_keystream(plaintext, chacha20_keystream(key, 1, nonce, n_blocks))
        assert batched == scalar, size


# ----------------------------------------------------------------------
# AEAD: batched vs scalar, and the keystream-slice entry points
# ----------------------------------------------------------------------

def test_aead_seal_open_matches_scalar_baseline():
    for size in (0, 1, 16, 511, 512, 1024, 4096, 16384, *CROSSOVER_SIZES):
        key = _random_bytes(32)
        nonce = _random_bytes(12)
        aad = _random_bytes(_RNG.randrange(0, 48))
        plaintext = _random_bytes(size)
        aead = ChaCha20Poly1305(key)
        fast = aead.encrypt(nonce, plaintext, aad)
        with fastpath.scalar_baseline():
            scalar = aead.encrypt(nonce, plaintext, aad)
            assert aead.decrypt(nonce, fast, aad) == plaintext
        assert fast == scalar, size
        assert aead.decrypt(nonce, fast, aad) == plaintext


def test_aead_keystream_slice_entry_points():
    if not _aead.HAVE_NUMPY:
        pytest.skip("numpy unavailable: keystream entry points unused")
    from repro.crypto.chacha20_fast import chacha20_keystream_multi

    key = _random_bytes(32)
    nonce = _random_bytes(12)
    aad = _random_bytes(13)
    plaintext = _random_bytes(3000)
    blocks = 1 + (len(plaintext) + 63) // 64
    keystream = memoryview(chacha20_keystream_multi(key, [nonce], 0, blocks))
    sealed_ref = ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
    assert _aead.seal_with_keystream(keystream, plaintext, aad) == sealed_ref
    assert _aead.open_with_keystream(keystream, sealed_ref, aad) == plaintext
    tampered = bytearray(sealed_ref)
    tampered[7] ^= 1
    with pytest.raises(CryptoError):
        _aead.open_with_keystream(keystream, bytes(tampered), aad)


# ----------------------------------------------------------------------
# Record-layer readahead window
# ----------------------------------------------------------------------

def _record(index: int, size: int):
    """(inner plaintext, header AAD) of a ``size``-byte record."""
    inner = bytes([index & 0xFF]) * size + bytes([ContentType.APPLICATION_DATA])
    return inner, record_header(ContentType.APPLICATION_DATA, len(inner) + TAG_LENGTH)


def _seal_series(sizes, secret=b"\x31" * 32):
    state = CipherState(TrafficKeys.from_secret(secret))
    out = []
    for index, size in enumerate(sizes):
        inner, aad = _record(index, size)
        out.append(state.seal(inner, aad))
        state.advance()
    return out


def _open_series(sizes, sealed, secret=b"\x31" * 32):
    state = CipherState(TrafficKeys.from_secret(secret))
    for index, (size, record) in enumerate(zip(sizes, sealed)):
        inner, aad = _record(index, size)
        assert state.open(record, aad) == inner, index
        state.advance()


#: Equal-size runs that end just before, at and just after the window
#: doubling edges (windows of 1, 2, 4, ... records end after 1, 3, 7,
#: 15, 31 and 63 records), then a size change mid-window.
WINDOW_EDGE_SERIES = (
    [1000] * 2, [1000] * 3, [1000] * 4, [200] * 7, [200] * 8,
    [4096] * 15, [4096] * 16, [64] * 31, [64] * 32, [16000] * 63 + [100, 16000],
)


def test_record_lookahead_seal_matches_scalar():
    # Mix sizes so the series crosses the crossover both ways and forces
    # a new window (larger record after a small window).
    mixed = [100, 2048, 2048, 16000, 64, 16000, 1024, 4096, 300, 8192]
    crossover = [size - 1 for size in CROSSOVER_SIZES if size] * 3
    for sizes in (mixed, crossover, *WINDOW_EDGE_SERIES):
        fast = _seal_series(sizes)
        _open_series(sizes, fast)
        with fastpath.scalar_baseline():
            scalar = _seal_series(sizes)
            _open_series(sizes, fast)
        assert fast == scalar, sizes


def test_record_lookahead_open_and_failed_trial():
    keys = TrafficKeys.from_secret(b"\x32" * 32)
    sender = CipherState(keys)
    receiver = CipherState(keys)
    wrong = CipherState(TrafficKeys.from_secret(b"\x33" * 32))
    for size in (2048, 16000, 2048):
        inner = b"\xaa" * size + bytes([ContentType.APPLICATION_DATA])
        aad = record_header(ContentType.APPLICATION_DATA, len(inner) + TAG_LENGTH)
        sealed = sender.seal(inner, aad)
        sender.advance()
        # A failed trial decryption must not advance the wrong context.
        with pytest.raises(CryptoError):
            wrong.open(sealed, aad)
        assert wrong.sequence == 0
        assert receiver.open(sealed, aad) == inner
        receiver.advance()


def test_record_rekey_drops_lookahead_cache():
    keys = TrafficKeys.from_secret(b"\x34" * 32)
    fast_state = CipherState(keys)
    inner = b"\xbb" * 4096 + bytes([ContentType.APPLICATION_DATA])
    aad = record_header(ContentType.APPLICATION_DATA, len(inner) + TAG_LENGTH)
    for _ in range(4):  # windows of 1 and 2 records, then one of 4
        fast_state.seal(inner, aad)
        fast_state.advance()
    fast_state.rekey()
    sealed_fast = []
    for _ in range(4):
        sealed_fast.append(fast_state.seal(inner, aad))
        fast_state.advance()
    with fastpath.scalar_baseline():
        scalar_state = CipherState(keys)
        scalar_state.rekey()
        sealed_scalar = []
        for _ in range(4):
            sealed_scalar.append(scalar_state.seal(inner, aad))
            scalar_state.advance()
    assert sealed_fast == sealed_scalar


# ----------------------------------------------------------------------
# Readahead cost: windows hold only keystream a context will use
# ----------------------------------------------------------------------

@pytest.fixture
def window_spy(monkeypatch):
    """Records ``(records, blocks per record)`` of every window built."""
    if not _aead.HAVE_NUMPY:
        pytest.skip("numpy unavailable: no readahead windows")
    windows = []
    generate = _record_layer.chacha20_keystream_multi

    def spy(key, nonces, counter, blocks_per_nonce):
        windows.append((len(nonces), blocks_per_nonce))
        return generate(key, nonces, counter, blocks_per_nonce)

    monkeypatch.setattr(_record_layer, "chacha20_keystream_multi", spy)
    return windows


def test_failed_trial_decryption_builds_no_window(window_spy):
    keys = TrafficKeys.from_secret(b"\x35" * 32)
    sender = CipherState(keys)
    fresh = CipherState(TrafficKeys.from_secret(b"\x36" * 32))
    inner, aad = _record(0, 2048)
    sealed = sender.seal(inner, aad)
    with pytest.raises(CryptoError):
        fresh.open(sealed, aad)
    assert window_spy == []
    # A context whose next record would open a multi-record window still
    # checks the tag first: a forged record there builds nothing either.
    sender.advance()
    forged = bytearray(sender.seal(inner, aad))
    forged[-1] ^= 1
    window_spy.clear()  # the sender's own window
    receiver = CipherState(keys)
    assert receiver.open(sealed, aad) == inner
    receiver.advance()
    with pytest.raises(CryptoError):
        receiver.open(bytes(forged), aad)
    assert window_spy == [] and receiver.sequence == 1


def test_mixed_record_sizes_generate_at_most_twice_what_they_use(window_spy):
    # rpc-shaped traffic: log-uniform record sizes from 32 B to 4 KiB.
    rng = random.Random(0x5EED)
    sizes = [int(32 * 128 ** rng.random()) for _ in range(400)]
    sealed = _seal_series(sizes)
    _open_series(sizes, sealed)
    consumed = 2 * sum(1 + (size + 1 + 63) // 64 for size in sizes)
    generated = sum(records * blocks for records, blocks in window_spy)
    assert generated <= 2 * consumed


def test_steady_full_size_records_reach_the_longest_window(window_spy):
    keys = TrafficKeys.from_secret(b"\x37" * 32)
    sender = CipherState(keys)
    receiver = CipherState(keys)
    wrong = ChaCha20Poly1305(b"\x38" * 32)
    for index in range(64):
        inner, aad = _record(index, MAX_PLAINTEXT - 1)
        sealed = sender.seal(inner, aad)
        sender.advance()
        # Failed trials on the receiving context leave its window alone.
        with pytest.raises(CryptoError):
            receiver.open(wrong.encrypt(receiver.next_nonce(), inner, aad), aad)
        assert receiver.open(sealed, aad) == inner
        receiver.advance()
    # Each direction: one record alone, then windows of 2, 4, 8 and 16,
    # and from record 31 on windows of LOOKAHEAD_RECORDS, all 257-block
    # slots (one-time key block plus 16 KiB of payload).
    assert sorted(window_spy) == sorted(
        [(records, 257) for records in (2, 4, 8, 16, LOOKAHEAD_RECORDS, LOOKAHEAD_RECORDS)] * 2
    )


# ----------------------------------------------------------------------
# FP001 cross-check registration for the "crypto.batch" flag
# ----------------------------------------------------------------------

def test_crypto_batch_flag_crosscheck():
    # The registered fastpath.CROSSCHECKS entry for "crypto.batch": both
    # flag states must produce byte-identical AEAD output.
    key = _random_bytes(32)
    nonce = _random_bytes(12)
    aad = _random_bytes(16)
    plaintext = _random_bytes(2048)
    aead = ChaCha20Poly1305(key)
    with fastpath.overridden("crypto.batch", True):
        fast = aead.encrypt(nonce, plaintext, aad)
    with fastpath.overridden("crypto.batch", False):
        scalar = aead.encrypt(nonce, plaintext, aad)
        assert aead.decrypt(nonce, fast, aad) == plaintext
    assert fast == scalar
