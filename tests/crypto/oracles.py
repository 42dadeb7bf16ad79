"""The scalar AES and its per-block CTR: the batch cipher's test oracles.

:class:`AES` is the FIPS-197 round function on one 16-byte block, a
flat state in column-major (FIPS) order, and :func:`ctr_transform` is
CTR one block per call, the counter advanced by
:func:`_increment_counter`.  Both run on the key schedule and S-box
production uses (:mod:`repro.crypto.aes`), and they are what
:class:`repro.crypto.fastaes.FastAES` and
:func:`repro.crypto.modes.ctr_transform` replaced; they live here, not
in ``src/``, so production has one cipher.  :func:`seal_envelope` and
:func:`open_envelope` build and open the envelope format of
:mod:`repro.crypto.envelope` on them.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.aes import ROUNDS_BY_KEY_SIZE, SBOX, _xtime, expand_key
from repro.crypto.envelope import (
    MAGIC,
    NONCE_SIZE,
    TAG_SIZE,
    EnvelopeError,
    _derive_keys,
)

BLOCK = 16


class AES:
    """AES block cipher for 16/24/32-byte keys."""

    BLOCK_SIZE = 16

    def __init__(self, key: bytes) -> None:
        self._round_keys = expand_key(key)  # validates the key length
        self._rounds = ROUNDS_BY_KEY_SIZE[len(key)]

    @staticmethod
    def _add_round_key(state: list[int], round_key: list[int]) -> None:
        for i in range(16):
            state[i] ^= round_key[i]

    @staticmethod
    def _sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: list[int]) -> None:
        # state[c*4 + r] is row r of column c (column-major layout).
        for row in range(1, 4):
            values = [state[column * 4 + row] for column in range(4)]
            values = values[row:] + values[:row]
            for column in range(4):
                state[column * 4 + row] = values[column]

    @staticmethod
    def _mix_columns(state: list[int]) -> None:
        for column in range(4):
            base = column * 4
            a = state[base : base + 4]
            state[base + 0] = _xtime(a[0]) ^ _xtime(a[1]) ^ a[1] ^ a[2] ^ a[3]
            state[base + 1] = a[0] ^ _xtime(a[1]) ^ _xtime(a[2]) ^ a[2] ^ a[3]
            state[base + 2] = a[0] ^ a[1] ^ _xtime(a[2]) ^ _xtime(a[3]) ^ a[3]
            state[base + 3] = _xtime(a[0]) ^ a[0] ^ a[1] ^ a[2] ^ _xtime(a[3])

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for round_index in range(1, self._rounds):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[round_index])
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self._rounds])
        return bytes(state)


def _increment_counter(counter: bytearray) -> None:
    """Increment a big-endian 16-byte counter block in place (mod 2**128).

    The carry deliberately propagates through the entire block —
    including any nonce prefix — and wraps to zero past 2**128; see
    :mod:`repro.crypto.modes` for why this is the defined behavior.
    """
    for index in range(15, -1, -1):
        counter[index] = (counter[index] + 1) & 0xFF
        if counter[index] != 0:
            return


def ctr_transform(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """AES-CTR one block at a time, as
    :func:`repro.crypto.modes.ctr_transform` defines it."""
    if len(nonce) > 16:
        raise ValueError(f"nonce must be at most 16 bytes, got {len(nonce)}")
    cipher = AES(key)
    counter = bytearray(nonce.ljust(16, b"\x00"))
    out = bytearray()
    for offset in range(0, len(data), BLOCK):
        keystream = cipher.encrypt_block(bytes(counter))
        chunk = data[offset : offset + BLOCK]
        out.extend(a ^ b for a, b in zip(chunk, keystream))
        _increment_counter(counter)
    return bytes(out)


def seal_envelope(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """The envelope :func:`repro.crypto.envelope.seal_envelope` writes:
    magic, nonce, ciphertext and the HMAC-SHA256 tag."""
    cipher_key, mac_key = _derive_keys(key)
    body = MAGIC + nonce + ctr_transform(cipher_key, nonce, plaintext)
    return body + hmac.new(mac_key, body, hashlib.sha256).digest()


def open_envelope(key: bytes, envelope: bytes) -> bytes:
    """Check the tag of an envelope and decrypt it."""
    cipher_key, mac_key = _derive_keys(key)
    body, tag = envelope[:-TAG_SIZE], envelope[-TAG_SIZE:]
    expected = hmac.new(mac_key, body, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise EnvelopeError("authentication failed")
    nonce = body[len(MAGIC) : len(MAGIC) + NONCE_SIZE]
    return ctr_transform(cipher_key, nonce, body[len(MAGIC) + NONCE_SIZE :])
