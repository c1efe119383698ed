"""Ed25519 signatures (RFC 8032), used for certificate signing.

Reference (non-constant-time) implementation following RFC 8032
section 5.1; sufficient for a simulator where the adversary is a
middlebox model, not a timing attacker.  Validated against the RFC 8032
section 7.1 test vectors and, when ``cryptography`` is installed,
against an independent implementation (``tests/crypto``).

Multiplications by the base point B (key generation, ``r*B`` in
signing, ``s*B`` in verification, and X25519 key generation in
:mod:`repro.crypto.x25519`) go through :func:`_base_mul`, a fixed-base
comb over a table of ``d * 16**i * B`` built on first use.  It computes
the same group element as double-and-add, so every encoded output is
bit-identical.  The generic :func:`_point_mul` remains the reference
the tests compare it with; :func:`_window_mul` serves the variable base
``h*A`` in verification.
"""

from __future__ import annotations

import functools
import hashlib

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _P - 2, _P)) % _P
_D2 = (2 * _D) % _P
_SQRT_M1 = pow(2, (_P - 1) // 4, _P)

# Base point (from RFC 8032 section 5.1).
_BY = (4 * pow(5, _P - 2, _P)) % _P


def _recover_x(y: int, sign: int) -> int:
    """Recover x from y and its sign bit with one exponentiation (RFC 8032 5.1.3)."""
    if y >= _P:
        raise ValueError("invalid point encoding")
    yy = y * y % _P
    u = (yy - 1) % _P
    v = (_D * yy + 1) % _P
    v3 = v * v % _P * v % _P
    x = u * v3 % _P * pow(u * v3 % _P * v3 % _P * v % _P, (_P - 5) // 8, _P) % _P
    vxx = v * x % _P * x % _P
    if vxx != u:
        if vxx != _P - u:
            raise ValueError("invalid point encoding")
        x = x * _SQRT_M1 % _P
    if x == 0 and sign:
        raise ValueError("invalid point encoding")
    if (x & 1) != sign:
        x = _P - x
    return x


_BX = _recover_x(_BY, 0)
_BASE = (_BX, _BY, 1, (_BX * _BY) % _P)
_IDENTITY = (0, 1, 1, 0)


def _point_add(p, q):
    # Extended twisted-Edwards coordinates addition (RFC 8032 section 5.1.4).
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = ((y1 - x1) * (y2 - x2)) % _P
    b = ((y1 + x1) * (y2 + x2)) % _P
    c = (t1 * t2 * _D2) % _P
    d = (2 * z1 * z2) % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return ((e * f) % _P, (g * h) % _P, (f * g) % _P, (e * h) % _P)


def _point_mul(scalar: int, point):
    """Generic double-and-add; the reference the faster paths are tested against."""
    result = _IDENTITY
    addend = point
    while scalar:
        if scalar & 1:
            result = _point_add(result, addend)
        addend = _point_add(addend, addend)
        scalar >>= 1
    return result


def _window_mul(scalar: int, point):
    """``scalar * point`` for a variable base, 4 bits at a time.

    The 15 nonzero multiples are kept as ``(y + x, y - x, 2z, 2dt)``.
    Doublings use the dedicated a = -1 formula (dbl-2008-hwcd), and those
    between two additions skip the T coordinate no doubling reads.
    """
    multiples = [point]
    for _ in range(14):
        multiples.append(_point_add(multiples[-1], point))
    cached = [((y + x) % _P, (y - x) % _P, 2 * z % _P, _D2 * t % _P)
              for x, y, z, t in multiples]
    x, y, z, t = _IDENTITY
    for shift in range((scalar.bit_length() - 1) & ~3, -4, -4):
        for _ in range(4):
            a = x * x % _P
            b = y * y % _P
            c = 2 * z * z
            h = a + b
            e = h - (x + y) * (x + y) % _P
            g = a - b
            f = c + g
            x, y, z = e * f % _P, g * h % _P, f * g % _P
        t = e * h % _P
        nibble = (scalar >> shift) & 15
        if nibble:
            ypx, ymx, z2, t2d = cached[nibble - 1]
            a = (y - x) * ymx % _P
            b = (y + x) * ypx % _P
            c = t * t2d % _P
            d = z * z2 % _P
            e, f, g, h = b - a, d - c, d + c, b + a
            x, y, z, t = e * f % _P, g * h % _P, f * g % _P, e * h % _P
    return (x, y, z, t)


@functools.cache
def _base_table():
    """Rows ``i = 0..63`` of ``d * 16**i * B`` for ``d = 1..8``, affine.

    Each entry is ``(y + x, y - x, 2*d*x*y)``, the form a mixed addition
    consumes.  Built once, on first use, with a single batched inversion
    for all 512 points.
    """
    points = []
    row_base = _BASE
    for _ in range(64):
        multiple = row_base
        points.append(multiple)
        for _ in range(7):
            multiple = _point_add(multiple, row_base)
            points.append(multiple)
        for _ in range(4):
            row_base = _point_add(row_base, row_base)
    # Montgomery's trick: invert every Z with one exponentiation.
    prefix = [1]
    for point in points:
        prefix.append(prefix[-1] * point[2] % _P)
    inv = pow(prefix[-1], _P - 2, _P)
    entries = [None] * len(points)
    for index in range(len(points) - 1, -1, -1):
        x, y, z, _ = points[index]
        zinv = inv * prefix[index] % _P
        inv = inv * z % _P
        x, y = x * zinv % _P, y * zinv % _P
        entries[index] = ((y + x) % _P, (y - x) % _P, _D2 * x % _P * y % _P)
    return tuple(tuple(entries[row:row + 8]) for row in range(0, len(entries), 8))


def _base_mul(scalar: int):
    """``scalar * B`` from the fixed-base table (signed radix-16 comb).

    B has order L, so the scalar is reduced mod L first; its 64 signed
    digits in [-8, 8] each select one table entry (negating an entry
    swaps ``y + x`` and ``y - x`` and negates ``2dxy``), and the entries
    are summed with mixed additions.  No doublings are needed.
    """
    table = _base_table()
    scalar %= _L
    x, y, z, t = _IDENTITY
    for row in table:
        if not scalar:
            break
        digit = scalar & 15
        scalar >>= 4
        if digit > 8:
            digit -= 16
            scalar += 1
            ymx, ypx, xy2d = row[-digit - 1]
            xy2d = _P - xy2d
        elif digit:
            ypx, ymx, xy2d = row[digit - 1]
        else:
            continue
        a = (y - x) * ymx % _P
        b = (y + x) * ypx % _P
        c = t * xy2d % _P
        d = 2 * z
        e, f, g, h = b - a, d - c, d + c, b + a
        x, y, z, t = e * f % _P, g * h % _P, f * g % _P, e * h % _P
    return (x, y, z, t)


def _point_equal(p, q) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % _P == 0 and (y1 * z2 - y2 * z1) % _P == 0


def _point_compress(point) -> bytes:
    x, y, z, _ = point
    zinv = pow(z, _P - 2, _P)
    x, y = (x * zinv) % _P, (y * zinv) % _P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _point_decompress(data: bytes):
    if len(data) != 32:
        raise ValueError("point encoding must be 32 bytes")
    encoded = int.from_bytes(data, "little")
    y = encoded & ((1 << 255) - 1)
    sign = encoded >> 255
    x = _recover_x(y, sign)
    return (x, y, 1, (x * y) % _P)


def _sha512_int(*parts: bytes) -> int:
    return int.from_bytes(hashlib.sha512(b"".join(parts)).digest(), "little")


def _secret_expand(secret: bytes):
    if len(secret) != 32:
        raise ValueError("Ed25519 private key must be 32 bytes")
    digest = hashlib.sha512(secret).digest()
    a = int.from_bytes(digest[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a, digest[32:]


def ed25519_public_key(secret: bytes) -> bytes:
    a, _ = _secret_expand(secret)
    return _point_compress(_base_mul(a))


def ed25519_sign(
    secret: bytes,
    message: bytes,
    *,
    expanded: tuple[int, bytes, bytes] | None = None,
) -> bytes:
    """Sign ``message``.

    ``expanded`` is ``(scalar, prefix, public)`` as derived from
    ``secret``; a caller that keeps it (see :class:`Ed25519PrivateKey`)
    saves the public-key multiplication on every signature.
    """
    if expanded is None:
        a, prefix = _secret_expand(secret)
        public = _point_compress(_base_mul(a))
    else:
        a, prefix, public = expanded
    r = _sha512_int(prefix, message) % _L
    r_point = _point_compress(_base_mul(r))
    h = _sha512_int(r_point, public, message) % _L
    s = (r + h * a) % _L
    return r_point + s.to_bytes(32, "little")


def ed25519_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    if len(public) != 32 or len(signature) != 64:
        return False
    try:
        a_point = _point_decompress(public)
        r_point = _point_decompress(signature[:32])
    except ValueError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    h = _sha512_int(signature[:32], public, message) % _L
    left = _base_mul(s)
    right = _point_add(r_point, _window_mul(h, a_point))
    return _point_equal(left, right)


class Ed25519PrivateKey:
    """A seed with its public key, expanded scalar and nonce prefix."""

    def __init__(self, seed: bytes) -> None:
        self._seed = bytes(seed)
        self.public_bytes = ed25519_public_key(self._seed)
        scalar, prefix = _secret_expand(self._seed)
        self._expanded = (scalar, prefix, self.public_bytes)

    def sign(self, message: bytes) -> bytes:
        return ed25519_sign(self._seed, message, expanded=self._expanded)
