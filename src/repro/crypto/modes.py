"""AES-CTR, the one mode of operation P3 uses.

The secret part is sealed with CTR (stream-shaped payloads, no
padding) plus an HMAC (:mod:`repro.crypto.envelope`).  CTR only ever
runs the forward cipher, so there is no inverse cipher.

:func:`ctr_transform` runs the vectorized cipher from
:mod:`repro.crypto.fastaes`, which processes the whole message per
round instead of one block per Python call.  The scalar FIPS-197
reference with its per-block CTR loop is its test oracle
(``tests/crypto/oracles.py``): byte-identical output, ~2 orders of
magnitude slower.  OpenSSL's AES-CTR is the outside oracle
(``tests/crypto/test_ctr_openssl.py``).

Counter semantics
-----------------
The CTR counter is the **whole 16-byte block**: the nonce is
right-padded with zeros to form the initial block, and each subsequent
block is the previous one plus one, big-endian, modulo 2**128.  A long
message therefore carries into (and past) the nonce bytes rather than
wrapping within the padded zero suffix — the SP 800-38A "standard
incrementing function" with m = 128.  ``tests/crypto/test_fastaes.py``
pins the carry and wrap boundaries.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.fastaes import ctr_keystream


def ctr_transform(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt with AES-CTR (the operation is its own inverse).

    ``nonce`` is up to 16 bytes and is right-padded with zeros to form
    the initial counter block; the full block then increments mod
    2**128 (module docstring).
    """
    if len(nonce) > 16:
        raise ValueError(f"nonce must be at most 16 bytes, got {len(nonce)}")
    if not data:
        return b""
    payload = np.frombuffer(data, dtype=np.uint8)
    keystream = ctr_keystream(key, nonce.ljust(16, b"\x00"), len(data))
    return (payload ^ keystream).tobytes()
