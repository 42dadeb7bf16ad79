"""Cryptographic substrate for P3.

The paper assumes "AES-based symmetric keys, distributed out of band"
(Section 4.2).  Because no crypto packages are available offline, this
subpackage implements the AES forward cipher from the FIPS-197
specification, the CTR mode of operation (the only one P3 uses, so the
inverse cipher is not needed), and an authenticated envelope format
(encrypt-then-MAC with HMAC-SHA256 from the standard library) used to
protect the secret part at the untrusted storage provider.

The cipher is vectorized (:class:`FastAES`, what :func:`ctr_transform`
runs): each round runs across all blocks of a message at once.  The
scalar FIPS-197 reference it replaced, one block per Python call, is
its test oracle (``tests/crypto/oracles.py``): byte-identical output,
~2 orders of magnitude slower on the CTR hot path.
"""

from repro.crypto.envelope import (
    EnvelopeError,
    open_envelope,
    seal_envelope,
)
from repro.crypto.fastaes import FastAES
from repro.crypto.keyring import Keyring, generate_key
from repro.crypto.modes import ctr_transform

__all__ = [
    "FastAES",
    "ctr_transform",
    "seal_envelope",
    "open_envelope",
    "EnvelopeError",
    "Keyring",
    "generate_key",
]
