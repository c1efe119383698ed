"""RFC 8032 section 7.1 test vectors for Ed25519, point decoding and the
fixed-base table."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crypto.ed25519 import (
    Ed25519PrivateKey,
    ed25519_public_key,
    ed25519_sign,
    ed25519_verify,
)

ed25519 = importlib.import_module("repro.crypto.ed25519")


def test_rfc8032_test_1_empty_message():
    secret = bytes.fromhex(
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
    )
    public = bytes.fromhex(
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
    )
    assert ed25519_public_key(secret) == public
    signature = ed25519_sign(secret, b"")
    assert signature == bytes.fromhex(
        "e5564300c360ac729086e2cc806e828a"
        "84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46b"
        "d25bf5f0595bbe24655141438e7a100b"
    )
    assert ed25519_verify(public, b"", signature)


def test_rfc8032_test_2_one_byte():
    secret = bytes.fromhex(
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"
    )
    public = bytes.fromhex(
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
    )
    message = bytes.fromhex("72")
    assert ed25519_public_key(secret) == public
    signature = ed25519_sign(secret, message)
    assert signature == bytes.fromhex(
        "92a009a9f0d4cab8720e820b5f642540"
        "a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c"
        "387b2eaeb4302aeeb00d291612bb0c00"
    )
    assert ed25519_verify(public, message, signature)


def test_verify_rejects_wrong_message():
    key = Ed25519PrivateKey(b"\x05" * 32)
    signature = key.sign(b"hello")
    assert ed25519_verify(key.public_bytes, b"hello", signature)
    assert not ed25519_verify(key.public_bytes, b"hellx", signature)


def test_verify_rejects_corrupt_signature():
    key = Ed25519PrivateKey(b"\x06" * 32)
    signature = bytearray(key.sign(b"msg"))
    signature[0] ^= 1
    assert not ed25519_verify(key.public_bytes, b"msg", bytes(signature))


def test_verify_rejects_garbage_inputs():
    assert not ed25519_verify(b"short", b"msg", b"\x00" * 64)
    assert not ed25519_verify(b"\x00" * 32, b"msg", b"\x00" * 10)


# ----------------------------------------------------------------------
# Point decoding must reject what RFC 8032 section 5.1.3 rejects
# ----------------------------------------------------------------------

_P = ed25519._P


def _is_square(value: int) -> bool:
    # Euler's criterion, independent of the decoder's square root.
    return value == 0 or pow(value, (_P - 1) // 2, _P) == 1


def _first_y_without_x() -> int:
    d = ed25519._D
    y = 2
    while _is_square((y * y - 1) * pow(d * y * y + 1, _P - 2, _P) % _P):
        y += 1
    return y


INVALID_ENCODINGS = {
    # y >= p (non-canonical): p and p + 1 reduce to the valid points
    # y = 0 and y = 1, so only the range check rejects them.
    "y_eq_p": _P.to_bytes(32, "little"),
    "y_eq_p_plus_1": (_P + 1).to_bytes(32, "little"),
    "y_max": (2**255 - 1).to_bytes(32, "little"),
    # x = 0 with the sign bit set: y = 1 (identity) and y = -1.
    "x0_identity_sign": (1 | 1 << 255).to_bytes(32, "little"),
    "x0_order2_sign": ((_P - 1) | 1 << 255).to_bytes(32, "little"),
    # x^2 = (y^2 - 1) / (d y^2 + 1) is not a square, with either sign.
    "nonsquare": _first_y_without_x().to_bytes(32, "little"),
    "nonsquare_sign": (_first_y_without_x() | 1 << 255).to_bytes(32, "little"),
}


@pytest.mark.parametrize("encoding", INVALID_ENCODINGS.values(), ids=INVALID_ENCODINGS.keys())
def test_invalid_point_encodings_are_rejected(encoding):
    with pytest.raises(ValueError):
        ed25519._point_decompress(encoding)
    key = Ed25519PrivateKey(b"\x08" * 32)
    signature = key.sign(b"msg")
    assert not ed25519_verify(encoding, b"msg", signature)
    assert not ed25519_verify(key.public_bytes, b"msg", encoding + signature[32:])


def test_valid_point_encodings_round_trip():
    # Both signs of a point, and x = 0 without the sign bit.
    for scalar in (1, 2, 3, ed25519._L - 1):
        point = ed25519._point_mul(scalar, ed25519._BASE)
        encoding = ed25519._point_compress(point)
        assert ed25519._point_equal(ed25519._point_decompress(encoding), point)
    assert ed25519._point_decompress((1).to_bytes(32, "little")) == ed25519._IDENTITY


# ----------------------------------------------------------------------
# Fixed-base table and windowed multiply against double-and-add
# ----------------------------------------------------------------------

_L = ed25519._L
EDGE_SCALARS = {
    "0": 0, "1": 1, "7": 7, "8": 8, "15": 15, "16": 16, "2^252": 2**252,
    "L-1": _L - 1, "L": _L, "L+1": _L + 1,
    "2^255-1": 2**255 - 1, "2^256-1": 2**256 - 1,
}


@pytest.mark.parametrize("scalar", EDGE_SCALARS.values(), ids=EDGE_SCALARS.keys())
def test_base_table_matches_double_and_add(scalar):
    expected = ed25519._point_mul(scalar, ed25519._BASE)
    product = ed25519._base_mul(scalar)
    assert ed25519._point_equal(product, expected)
    assert ed25519._point_compress(product) == ed25519._point_compress(expected)


@pytest.mark.parametrize("scalar", EDGE_SCALARS.values(), ids=EDGE_SCALARS.keys())
def test_window_mul_matches_double_and_add(scalar):
    # A base with an order-8 component: the windowed multiply must not
    # reduce its scalar mod L.
    torsion = ed25519._point_decompress(bytes.fromhex(
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a"
    ))
    assert ed25519._point_equal(ed25519._point_mul(8, torsion), ed25519._IDENTITY)
    for base in (ed25519._BASE, ed25519._point_add(ed25519._BASE, torsion)):
        expected = ed25519._point_mul(scalar, base)
        assert ed25519._point_equal(ed25519._window_mul(scalar, base), expected)


def test_importing_the_package_builds_no_table():
    probe = (
        "import sys, repro.crypto; "
        "assert sys.modules['repro.crypto.ed25519']._base_table.cache_info().currsize == 0"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
    )
    assert proc.returncode == 0, proc.stderr


def test_private_key_sign_multiplies_the_base_point_once(monkeypatch):
    seed = b"\x09" * 32
    key = Ed25519PrivateKey(seed)
    calls = []
    table_mul = ed25519._base_mul

    def counted(scalar):
        calls.append(scalar)
        return table_mul(scalar)

    monkeypatch.setattr(ed25519, "_base_mul", counted)
    monkeypatch.setattr(ed25519, "_point_mul", None)  # no generic multiply in signing
    signature = key.sign(b"transcript")
    assert len(calls) == 1
    monkeypatch.undo()
    assert signature == ed25519_sign(seed, b"transcript")
    assert ed25519_verify(key.public_bytes, b"transcript", signature)
