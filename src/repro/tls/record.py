"""The TLS 1.3 record layer (RFC 8446 section 5).

Encrypted records hide their true content type: the outer header always
says ``application_data`` (23) and the real type rides as the last
plaintext byte (``TLSInnerPlaintext.type``).  The paper's Figure 1 is
precisely this mechanism — TCPLS extends the inner-type space with its
own control types (``repro.core.framing``), so a middlebox sees only
opaque APPDATA records.

``RecordDecoder.decrypt_with`` exposes the per-record AEAD open so TCPLS
can do trial decryption across per-stream cryptographic contexts
(paper section 2.3).

Fast path (``fastpath`` feature ``crypto.batch``): the nonce schedule is
deterministic (``iv XOR sequence``), so a ``CipherState`` can generate
the ChaCha20 keystream of its next several records in one vectorized
call and hand slices of it to the AEAD layer.  The window reads ahead
only as far as the context has shown it will go: it starts at one record
and doubles while windows are used to their end, and an open checks the
tag before it builds one.  Sealing/opening through it is bit-identical
to the per-record construction, the sequence numbers advance exactly as
before, and any key change drops the window.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator, List, Optional, Tuple

from repro.crypto import aead as _aead
from repro.crypto.aead import ChaCha20Poly1305, TAG_LENGTH
from repro.crypto.keyschedule import TrafficKeys
from repro.utils.bytesio import ByteWriter
from repro.utils.errors import CryptoError, InvalidValue, ProtocolViolation

if _aead.HAVE_NUMPY:
    from repro.crypto.chacha20_fast import chacha20_keystream_multi, xor_keystream


class ContentType:
    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23

MAX_PLAINTEXT = 1 << 14  # RFC 8446: 2^14 bytes of plaintext per record
RECORD_HEADER_LEN = 5
LEGACY_RECORD_VERSION = 0x0303

# Per-record overhead once encrypted: header + inner type byte + AEAD tag.
ENCRYPTED_OVERHEAD = RECORD_HEADER_LEN + 1 + TAG_LENGTH

#: Most record sequence numbers one readahead window covers.  A numpy
#: pass costs little more for 257 blocks than for 1, so a longer window
#: amortizes it over more records; 32 full-size records is about 0.5 MiB
#: of keystream.  Windows start at one record and double up to this only
#: while each window is used to its end (see ``CipherState``).
LOOKAHEAD_RECORDS = 32


def record_header(content_type: int, length: int) -> bytes:
    writer = ByteWriter()
    writer.put_u8(content_type).put_u16(LEGACY_RECORD_VERSION).put_u16(length)
    return writer.getvalue()


class CipherState:
    """One direction's AEAD key material plus its record sequence number.

    Holds the keystream readahead window: because the per-record nonce is
    ``iv XOR sequence``, the keystream for sequences ``[base, base + R)``
    can be generated in one vectorized pass and sliced per record, each
    record getting a slot of the size of the record that opened the
    window.  A window starts at one record and doubles (up to
    ``LOOKAHEAD_RECORDS``) only when the previous one was used up to its
    end: every record in it fitted its slot and the last one filled it.
    Steady full-size records (bulk transfer) so reach 32-record windows,
    while mixed sizes keep windows at about what the records consume.
    The records of a one-record window, or of a window too small for a
    numpy pass, go one by one through the AEAD, which picks scalar or
    numpy by ``aead.NUMPY_MIN_BLOCKS``.
    """

    def __init__(self, keys: TrafficKeys) -> None:
        self.keys = keys
        self.aead = ChaCha20Poly1305(keys.key)
        self.sequence = 0
        self._drop_window()

    def _drop_window(self) -> None:
        #: Keystream of the current window, or None when its records go
        #: one by one through the AEAD.
        self._ks: Optional[memoryview] = None
        self._ks_base = 0
        self._ks_records = 0
        self._ks_slot = 0  # keystream blocks per record
        #: Whether the last slot of the window was consumed in full.
        self._ks_used_up = False

    def next_nonce(self) -> bytes:
        return self.keys.nonce_for(self.sequence)

    def advance(self) -> None:
        self.sequence += 1

    def rekey(self) -> None:
        """RFC 8446 7.2 key update."""
        self.keys = self.keys.next_generation()
        self.aead = ChaCha20Poly1305(self.keys.key)
        self.sequence = 0
        self._drop_window()

    def _in_window(self, blocks: int) -> bool:
        """Whether the current window has a slot for this record."""
        offset = self.sequence - self._ks_base
        return 0 <= offset < self._ks_records and blocks <= self._ks_slot

    def _slot(self, blocks: int) -> Optional[memoryview]:
        """This record's keystream (OTK block + payload blocks) out of the
        window, or None when the record goes through the AEAD."""
        if self._ks is None:
            return None
        start = (self.sequence - self._ks_base) * self._ks_slot * 64
        return self._ks[start : start + blocks * 64]

    def _used(self, blocks: int) -> None:
        """Note a record sealed or opened at the current sequence."""
        if self.sequence == self._ks_base + self._ks_records - 1:
            self._ks_used_up = blocks == self._ks_slot

    def _next_window(self) -> int:
        """Records a window opened at the current sequence should cover."""
        if self._ks_used_up and self.sequence == self._ks_base + self._ks_records:
            return min(2 * self._ks_records, LOOKAHEAD_RECORDS)
        return 1

    def _open_window(self, records: int, blocks: int) -> Optional[memoryview]:
        """Start a window of ``records`` slots of ``blocks`` blocks at the
        current sequence, generated only if one numpy pass pays off, and
        return this record's slot."""
        seq = self.sequence
        self._ks = None
        if records > 1 and _aead.use_numpy(records * blocks):
            nonces = [self.keys.nonce_for(s) for s in range(seq, seq + records)]
            self._ks = memoryview(
                chacha20_keystream_multi(self.keys.key, nonces, 0, blocks)
            )
        self._ks_base = seq
        self._ks_records = records
        self._ks_slot = blocks
        self._ks_used_up = False
        return self._slot(blocks)

    def seal(self, inner: bytes, aad: bytes) -> bytes:
        """Encrypt one record at the current sequence (does not advance)."""
        blocks = 1 + (len(inner) + 63) // 64
        if self._in_window(blocks):
            keystream = self._slot(blocks)
        else:
            keystream = self._open_window(self._next_window(), blocks)
        if keystream is not None:
            sealed = _aead.seal_with_keystream(keystream, inner, aad)
        else:
            sealed = self.aead.encrypt(self.next_nonce(), inner, aad)
        self._used(blocks)
        return sealed

    def open(self, ciphertext: bytes, aad: bytes) -> bytes:
        """Verify + decrypt one record at the current sequence.

        A failed trial decryption raises before the window changes, and
        builds none: a record outside the window has its tag checked with
        a one-block one-time key before any keystream window is generated.
        """
        blocks = 1 + (len(ciphertext) - TAG_LENGTH + 63) // 64
        if self._in_window(blocks):
            keystream = self._slot(blocks)
            if keystream is not None:
                plaintext = _aead.open_with_keystream(keystream, ciphertext, aad)
            else:
                plaintext = self.aead.decrypt(self.next_nonce(), ciphertext, aad)
        else:
            records = self._next_window()
            if records > 1 and _aead.use_numpy(records * blocks):
                # Tag first: a foreign or forged record builds no window.
                body = self.aead.verify(self.next_nonce(), ciphertext, aad)
                keystream = self._open_window(records, blocks)
                plaintext = xor_keystream(body, keystream[64:])
            else:
                plaintext = self.aead.decrypt(self.next_nonce(), ciphertext, aad)
                self._open_window(records, blocks)
        self._used(blocks)
        return plaintext


class RecordEncoder:
    """Serializes plaintext or encrypted records for one direction."""

    def __init__(self) -> None:
        self._cipher: Optional[CipherState] = None
        self.records_encrypted = 0
        # Optional observability hook: called with the on-wire record
        # length after each encrypted record is produced.  Recording
        # only — never alters the bytes.
        self.on_record_encrypted: Optional[Callable[[int], None]] = None

    @property
    def is_encrypting(self) -> bool:
        return self._cipher is not None

    @property
    def cipher(self) -> Optional[CipherState]:
        return self._cipher

    def set_key(self, keys: TrafficKeys) -> None:
        self._cipher = CipherState(keys)

    def clear_key(self) -> None:
        self._cipher = None

    def encode(self, content_type: int, payload: bytes) -> bytes:
        """Produce one or more records carrying ``payload``."""
        if not payload and content_type != ContentType.APPLICATION_DATA:
            payload = b""
        out = []
        offset = 0
        while True:
            chunk = payload[offset : offset + MAX_PLAINTEXT - 1]
            out.append(self._encode_one(content_type, chunk))
            offset += len(chunk)
            if offset >= len(payload):
                break
        return b"".join(out)

    def _encode_one(self, content_type: int, chunk: bytes) -> bytes:
        if self._cipher is None:
            return record_header(content_type, len(chunk)) + chunk
        inner = chunk + bytes([content_type])
        sealed_length = len(inner) + TAG_LENGTH
        header = record_header(ContentType.APPLICATION_DATA, sealed_length)
        sealed = self._cipher.seal(inner, header)
        self._cipher.advance()
        self.records_encrypted += 1
        if self.on_record_encrypted is not None:
            self.on_record_encrypted(len(header) + len(sealed))
        return header + sealed


def strip_padding(inner: bytes) -> Tuple[int, bytes]:
    """Split TLSInnerPlaintext into (content_type, content)."""
    end = len(inner)
    while end > 0 and inner[end - 1] == 0:
        end -= 1
    if end == 0:
        raise InvalidValue("record with all-zero inner plaintext")
    return inner[end - 1], inner[: end - 1]


class RecordDecoder:
    """Reassembles a byte stream into records and decrypts them."""

    def __init__(self) -> None:
        self._cipher: Optional[CipherState] = None
        self._buffer = bytearray()
        self.records_decrypted = 0
        self.decrypt_failures = 0
        # Optional observability hook: ciphertext length of each record
        # successfully decrypted by this decoder.
        self.on_record_decrypted: Optional[Callable[[int], None]] = None

    @property
    def is_decrypting(self) -> bool:
        return self._cipher is not None

    @property
    def cipher(self) -> Optional[CipherState]:
        return self._cipher

    def set_key(self, keys: TrafficKeys) -> None:
        self._cipher = CipherState(keys)

    def clear_key(self) -> None:
        self._cipher = None

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def pending_bytes(self) -> int:
        return len(self._buffer)

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield complete (content_type, plaintext) records."""
        while True:
            record = self._next_raw_record()
            if record is None:
                return
            outer_type, ciphertext = record
            if self._cipher is None or outer_type != ContentType.APPLICATION_DATA:
                yield outer_type, ciphertext
                continue
            yield self._decrypt(ciphertext)

    def raw_records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield records without decrypting (TCPLS trial decryption path)."""
        while True:
            record = self._next_raw_record()
            if record is None:
                return
            yield record

    def _next_raw_record(self) -> Optional[Tuple[int, bytes]]:
        if len(self._buffer) < RECORD_HEADER_LEN:
            return None
        # Header fields straight out of the reassembly buffer — one
        # struct call instead of a ByteReader over a copied slice.
        outer_type, _legacy_version, length = struct.unpack_from(
            "!BHH", self._buffer, 0
        )
        if length > MAX_PLAINTEXT + 256 + TAG_LENGTH:
            raise InvalidValue(f"record length {length} exceeds the limit")
        if len(self._buffer) < RECORD_HEADER_LEN + length:
            return None
        body = bytes(self._buffer[RECORD_HEADER_LEN : RECORD_HEADER_LEN + length])
        del self._buffer[: RECORD_HEADER_LEN + length]
        return outer_type, body

    def _decrypt(self, ciphertext: bytes) -> Tuple[int, bytes]:
        assert self._cipher is not None
        header = record_header(ContentType.APPLICATION_DATA, len(ciphertext))
        try:
            inner = self._cipher.open(ciphertext, header)
        except CryptoError:
            self.decrypt_failures += 1
            raise
        self._cipher.advance()
        self.records_decrypted += 1
        if self.on_record_decrypted is not None:
            self.on_record_decrypted(len(ciphertext))
        return strip_padding(inner)

    @staticmethod
    def decrypt_with(cipher: CipherState, ciphertext: bytes) -> Tuple[int, bytes]:
        """Open one record under an explicit cipher state.

        Raises ``CryptoError`` without touching the sequence number if the
        tag does not verify — the lightweight "check the authentication
        tag until we find the stream" probe from paper section 2.3.
        """
        header = record_header(ContentType.APPLICATION_DATA, len(ciphertext))
        inner = cipher.open(ciphertext, header)
        cipher.advance()
        return strip_padding(inner)
