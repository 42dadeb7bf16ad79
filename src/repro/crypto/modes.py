"""AES-CTR, the one mode of operation P3 uses.

The secret part is sealed with CTR (stream-shaped payloads, no
padding) plus an HMAC (:mod:`repro.crypto.envelope`).  CTR only ever
runs the forward cipher, so neither engine implements decryption.

:func:`ctr_transform` takes ``fast=True``: the vectorized engine from
:mod:`repro.crypto.fastaes` processes the whole message per round
instead of one block per Python call.  ``fast=False`` runs the scalar
FIPS-197 reference — byte-identical output, ~2 orders of magnitude
slower — so the two can be diffed to isolate crypto bugs, exactly like
the codec's ``engine="scalar"`` oracle.  ``fast`` is AES's only engine
selector; outside tests and benchmarks nothing passes ``False``.
OpenSSL's AES-CTR is the outside oracle for both engines
(``tests/crypto/test_ctr_openssl.py``).

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
from repro.crypto.fastaes import ctr_keystream

BLOCK = AES.BLOCK_SIZE


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
