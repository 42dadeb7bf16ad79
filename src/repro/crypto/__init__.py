"""Cryptographic substrate for P3.

The paper assumes "AES-based symmetric keys, distributed out of band"
(Section 4.2).  Because no crypto packages are available offline, this
subpackage implements the AES forward cipher from the FIPS-197
specification, the CTR mode of operation (the only one P3 uses, so the
inverse cipher is not needed), and an authenticated envelope format
(encrypt-then-MAC with HMAC-SHA256 from the standard library) used to
protect the secret part at the untrusted storage provider.

Two interchangeable AES engines exist: the scalar FIPS-197 reference
(:class:`AES`) and the vectorized batch engine (:class:`FastAES`,
default on :func:`ctr_transform`'s ``fast=True`` switch) that runs each
round across all blocks of a message at once — byte-identical output,
~2 orders of magnitude faster on the CTR hot path.
"""

from repro.crypto.aes import AES
from repro.crypto.envelope import (
    EnvelopeError,
    open_envelope,
    seal_envelope,
)
from repro.crypto.fastaes import FastAES
from repro.crypto.keyring import Keyring, generate_key
from repro.crypto.modes import ctr_transform

__all__ = [
    "AES",
    "FastAES",
    "ctr_transform",
    "seal_envelope",
    "open_envelope",
    "EnvelopeError",
    "Keyring",
    "generate_key",
]
