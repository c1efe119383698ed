"""Vectorized ChaCha20 keystream generation using numpy.

Generates many 64-byte keystream blocks in one pass by holding the 16-word
ChaCha state as a ``(16, n_blocks)`` uint32 matrix and running the 20
rounds across all blocks simultaneously.  Output is bit-identical to the
scalar implementation in ``repro.crypto.chacha20`` (asserted by tests);
the scalar path remains the reference and the fallback.

Two entry points:

- :func:`chacha20_keystream` — blocks of one (key, nonce) stream;
- :func:`chacha20_keystream_multi` — blocks for *several nonces* of the
  same key in one matrix, which the record layer's readahead window uses
  to cover the next records of one context (``tls/record.py``; the
  nonce schedule ``iv XOR sequence`` is deterministic).

A pass costs mostly numpy call overhead, nearly the same for 1 block as
for 257, so the matrix is worked row-wise: rows 0-3, 4-7, 8-11 and 12-15
are four ``(4, n)`` arrays a, b, c and d, and one vectorized quarter
round over them is all four column quarter rounds.  The diagonal round is
the same quarter round on copies of b, c and d turned by one, two and
three rows, which are turned back afterwards.  That is 400 ufunc calls
and 60 row copies per pass, where working one state row at a time took
1600 calls; a pass costs about a quarter of what it did (numbers in
``aead.NUMPY_MIN_BLOCKS``'s comment).  Rotations are two shifts and an OR
into preallocated scratch, so the rounds allocate nothing beyond the
state.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)

#: Left and right shift amounts of each rotation the quarter round uses.
_SHIFTS = {count: (np.uint32(count), np.uint32(32 - count)) for count in (16, 12, 8, 7)}

#: Row orders that line each diagonal up under row a: in the diagonal
#: round, quarter round ``i`` takes a[i], b[i+1], c[i+2], d[i+3].
_DIAGONAL = ([1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2])
_UNDIAGONAL = ([3, 0, 1, 2], [2, 3, 0, 1], [1, 2, 3, 0])


def _rotl_inplace(x: "np.ndarray", count: int, scratch: "np.ndarray") -> None:
    left, right = _SHIFTS[count]
    np.right_shift(x, right, out=scratch)
    np.left_shift(x, left, out=x)
    np.bitwise_or(x, scratch, out=x)


def _quarter_rounds(
    a: "np.ndarray", b: "np.ndarray", c: "np.ndarray", d: "np.ndarray",
    scratch: "np.ndarray",
) -> None:
    """Four quarter rounds at once: column ``i`` of a, b, c, d is one."""
    np.add(a, b, out=a)
    np.bitwise_xor(d, a, out=d)
    _rotl_inplace(d, 16, scratch)
    np.add(c, d, out=c)
    np.bitwise_xor(b, c, out=b)
    _rotl_inplace(b, 12, scratch)
    np.add(a, b, out=a)
    np.bitwise_xor(d, a, out=d)
    _rotl_inplace(d, 8, scratch)
    np.add(c, d, out=c)
    np.bitwise_xor(b, c, out=b)
    _rotl_inplace(b, 7, scratch)


def _run_rounds(initial: "np.ndarray") -> bytes:
    state = initial.copy()
    # Rows 0-3, 4-7, 8-11 and 12-15 of the state as four (4, n) views.
    rows = state.reshape(4, 4, -1)
    a, b, c, d = rows
    scratch = np.empty_like(a)
    turned = np.empty_like(rows[1:])
    tb, tc, td = turned
    for _ in range(10):
        _quarter_rounds(a, b, c, d, scratch)
        for row, order, out in zip((b, c, d), _DIAGONAL, turned):
            np.take(row, order, axis=0, out=out)
        _quarter_rounds(a, tb, tc, td, scratch)
        for row, order, out in zip(turned, _UNDIAGONAL, (b, c, d)):
            np.take(row, order, axis=0, out=out)
    state += initial
    # Column-major per block: transpose so each row is one block's 16 words.
    return state.T.astype("<u4").tobytes()


def _base_state(key: bytes, n_columns: int) -> "np.ndarray":
    initial = np.empty((16, n_columns), dtype=np.uint32)
    initial[:12] = np.array(_CONSTANTS + struct.unpack("<8I", key), dtype=np.uint32)[:, None]
    return initial


def chacha20_keystream(key: bytes, counter: int, nonce: bytes, n_blocks: int) -> bytes:
    """Return ``n_blocks`` 64-byte keystream blocks starting at ``counter``."""
    if n_blocks <= 0:
        return b""
    initial = _base_state(key, n_blocks)
    # Per-block counters; ChaCha20's counter wraps at 2^32 by construction.
    initial[12] = (np.arange(counter, counter + n_blocks, dtype=np.uint64)
                   & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    nonce_words = struct.unpack("<3I", nonce)
    for i, word in enumerate(nonce_words):
        initial[13 + i] = word
    return _run_rounds(initial)


def chacha20_keystream_multi(
    key: bytes, nonces: Sequence[bytes], counter: int, blocks_per_nonce: int
) -> bytes:
    """Keystream blocks ``counter .. counter+blocks_per_nonce-1`` for every
    nonce, concatenated nonce-major, from a single vectorized pass.

    ``result[i*blocks_per_nonce*64 : (i+1)*blocks_per_nonce*64]`` equals
    ``chacha20_keystream(key, counter, nonces[i], blocks_per_nonce)``.
    """
    if blocks_per_nonce <= 0 or not nonces:
        return b""
    n_nonces = len(nonces)
    total = n_nonces * blocks_per_nonce
    initial = _base_state(key, total)
    counters = (np.arange(counter, counter + blocks_per_nonce, dtype=np.uint64)
                & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    initial[12] = np.tile(counters, n_nonces)
    nonce_words = np.array(
        [struct.unpack("<3I", nonce) for nonce in nonces], dtype=np.uint32
    )
    for i in range(3):
        initial[13 + i] = np.repeat(nonce_words[:, i], blocks_per_nonce)
    return _run_rounds(initial)


def xor_keystream(data, keystream) -> bytes:
    """XOR ``data`` with ``keystream`` (bytes-like, at least as long)."""
    plain = np.frombuffer(data, dtype=np.uint8)
    ks = np.frombuffer(keystream, dtype=np.uint8)[: len(plain)]
    return (plain ^ ks).tobytes()
