"""Modes of operation (CTR, CBC, ECB) and PKCS#7 padding for AES.

CTR is the mode P3 uses for the secret part (stream-shaped payloads,
no padding); CBC+PKCS#7 is provided for completeness and testing, ECB
for the NIST test vectors.

Every mode takes ``fast=True``: the vectorized engine from
:mod:`repro.crypto.fastaes` processes the whole message per round
instead of one block per Python call.  ``fast=False`` runs the scalar
FIPS-197 reference — byte-identical output, ~2 orders of magnitude
slower — so the two can be diffed to isolate crypto bugs, exactly like
the codec's ``engine="scalar"`` oracle.  ``fast`` is AES's only engine
selector; outside tests and benchmarks nothing passes ``False``.  CBC
*encryption* is inherently serial (each block's input XORs the
previous ciphertext block) and always runs the scalar engine.

Counter semantics
-----------------
The CTR counter is the **whole 16-byte block**: the nonce is
right-padded with zeros to form the initial block, and each subsequent
block is the previous one plus one, big-endian, modulo 2**128.  A long
message therefore carries into (and past) the nonce bytes rather than
wrapping within the padded zero suffix — the SP 800-38A "standard
incrementing function" with m = 128.  Both engines implement exactly
this; ``tests/crypto/test_fastaes.py`` pins the carry and wrap
boundaries.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.aes import AES
from repro.crypto.fastaes import FastAES, ctr_keystream

BLOCK = AES.BLOCK_SIZE


def pkcs7_pad(data: bytes, block_size: int = BLOCK) -> bytes:
    """Append PKCS#7 padding up to a whole number of blocks."""
    if not 1 <= block_size <= 255:
        raise ValueError(f"invalid block size {block_size}")
    pad_length = block_size - (len(data) % block_size)
    return data + bytes([pad_length]) * pad_length


def pkcs7_unpad(data: bytes, block_size: int = BLOCK) -> bytes:
    """Validate and strip PKCS#7 padding."""
    if not data or len(data) % block_size != 0:
        raise ValueError("data is not block-aligned")
    pad_length = data[-1]
    if not 1 <= pad_length <= block_size:
        raise ValueError("invalid padding length")
    if data[-pad_length:] != bytes([pad_length]) * pad_length:
        raise ValueError("invalid padding bytes")
    return data[:-pad_length]


def _increment_counter(counter: bytearray) -> None:
    """Increment a big-endian 16-byte counter block in place (mod 2**128).

    The carry deliberately propagates through the entire block —
    including any nonce prefix — and wraps to zero past 2**128; see the
    module docstring for why this is the defined behavior.
    """
    for index in range(15, -1, -1):
        counter[index] = (counter[index] + 1) & 0xFF
        if counter[index] != 0:
            return


def ctr_transform(
    key: bytes, nonce: bytes, data: bytes, fast: bool = True
) -> bytes:
    """Encrypt or decrypt with AES-CTR (the operation is its own inverse).

    ``nonce`` is up to 16 bytes and is right-padded with zeros to form
    the initial counter block; the full block then increments mod
    2**128 (module docstring).  ``fast`` selects the vectorized engine.
    """
    if len(nonce) > 16:
        raise ValueError(f"nonce must be at most 16 bytes, got {len(nonce)}")
    initial = nonce.ljust(16, b"\x00")
    if fast:
        if not data:
            return b""
        payload = np.frombuffer(data, dtype=np.uint8)
        keystream = ctr_keystream(key, initial, len(data))
        return (payload ^ keystream).tobytes()
    cipher = AES(key)
    counter = bytearray(initial)
    out = bytearray()
    for offset in range(0, len(data), BLOCK):
        keystream = cipher.encrypt_block(bytes(counter))
        chunk = data[offset : offset + BLOCK]
        out.extend(a ^ b for a, b in zip(chunk, keystream))
        _increment_counter(counter)
    return bytes(out)


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """AES-CBC encryption with PKCS#7 padding.

    Always scalar: block ``i`` cannot be encrypted before block
    ``i - 1``'s ciphertext exists, so there is no stack to batch.
    """
    if len(iv) != BLOCK:
        raise ValueError(f"IV must be {BLOCK} bytes, got {len(iv)}")
    cipher = AES(key)
    padded = pkcs7_pad(plaintext)
    previous = iv
    out = bytearray()
    for offset in range(0, len(padded), BLOCK):
        block = bytes(
            a ^ b
            for a, b in zip(padded[offset : offset + BLOCK], previous)
        )
        encrypted = cipher.encrypt_block(block)
        out.extend(encrypted)
        previous = encrypted
    return bytes(out)


def cbc_decrypt(
    key: bytes, iv: bytes, ciphertext: bytes, fast: bool = True
) -> bytes:
    """AES-CBC decryption, validating and stripping PKCS#7 padding.

    Unlike encryption, decryption parallelizes: every ciphertext block
    decrypts independently, then one shifted XOR against
    ``iv || ciphertext[:-16]`` undoes the chaining.
    """
    if len(iv) != BLOCK:
        raise ValueError(f"IV must be {BLOCK} bytes, got {len(iv)}")
    if len(ciphertext) % BLOCK != 0:
        raise ValueError("ciphertext is not block-aligned")
    if fast:
        if not ciphertext:
            return pkcs7_unpad(b"")
        blocks = np.frombuffer(ciphertext, dtype=np.uint8).reshape(-1, BLOCK)
        decrypted = FastAES(key).decrypt_blocks(blocks)
        chain = np.empty_like(blocks)
        chain[0] = np.frombuffer(iv, dtype=np.uint8)
        chain[1:] = blocks[:-1]
        return pkcs7_unpad((decrypted ^ chain).tobytes())
    cipher = AES(key)
    previous = iv
    out = bytearray()
    for offset in range(0, len(ciphertext), BLOCK):
        block = ciphertext[offset : offset + BLOCK]
        decrypted = cipher.decrypt_block(block)
        out.extend(a ^ b for a, b in zip(decrypted, previous))
        previous = block
    return pkcs7_unpad(bytes(out))


def ecb_encrypt(key: bytes, plaintext: bytes, fast: bool = True) -> bytes:
    """Raw AES-ECB over block-aligned data (test vectors; no padding)."""
    if len(plaintext) % BLOCK != 0:
        raise ValueError("ECB data must be block-aligned")
    if fast:
        if not plaintext:
            return b""
        blocks = np.frombuffer(plaintext, dtype=np.uint8).reshape(-1, BLOCK)
        return FastAES(key).encrypt_blocks(blocks).tobytes()
    cipher = AES(key)
    return b"".join(
        cipher.encrypt_block(plaintext[offset : offset + BLOCK])
        for offset in range(0, len(plaintext), BLOCK)
    )


def ecb_decrypt(key: bytes, ciphertext: bytes, fast: bool = True) -> bytes:
    """Inverse of :func:`ecb_encrypt`."""
    if len(ciphertext) % BLOCK != 0:
        raise ValueError("ECB data must be block-aligned")
    if fast:
        if not ciphertext:
            return b""
        blocks = np.frombuffer(ciphertext, dtype=np.uint8).reshape(-1, BLOCK)
        return FastAES(key).decrypt_blocks(blocks).tobytes()
    cipher = AES(key)
    return b"".join(
        cipher.decrypt_block(ciphertext[offset : offset + BLOCK])
        for offset in range(0, len(ciphertext), BLOCK)
    )
