"""Recipient-side P3 operation: decrypt, recombine, render.

Handles both cases of paper Section 3.3 through
:func:`repro.serve.reconstruct.reconstruct_served`, the one
reconstruction path every download takes:

* the PSP stored the public part unchanged -> exact coefficient-domain
  recombination (Eq. 1);
* the PSP transformed the public part -> pixel-domain reconstruction
  (Eq. 2) using a supplied or inferred linear operator.
"""

from __future__ import annotations

import numpy as np

from repro.core.serialization import SecretPart, deserialize_secret
from repro.crypto.envelope import open_envelope
from repro.transforms.operators import LinearOperator


class P3Decryptor:
    """Applies P3 recipient-side decryption with a shared album key."""

    def __init__(self, key: bytes) -> None:
        self._key = key

    def open_secret(  # taint: source(secret)
        self, secret_envelope: bytes
    ) -> SecretPart:
        """Authenticate, decrypt and parse the secret container."""
        return deserialize_secret(open_envelope(self._key, secret_envelope))

    def decrypt(
        self,
        public_jpeg: bytes,
        secret_envelope: bytes,
        operator: LinearOperator | None = None,
    ) -> np.ndarray:
        """Reconstruct the original image (or its transformed version).

        If the served public part matches the secret part's geometry the
        exact Eq. 1 path is used.  Otherwise the Eq. 2 pixel-domain path
        runs with ``operator``; when ``operator`` is None a bilinear
        resize from the original to the served size is assumed (the
        recipient's default guess, refined by
        :mod:`repro.system.reverse` in the full system).
        """
        return self.reconstruct(
            public_jpeg, self.open_secret(secret_envelope), operator
        )

    def reconstruct(  # taint: sanitizer
        self,
        public_jpeg: bytes,
        secret_part: SecretPart,
        operator: LinearOperator | None = None,
    ) -> np.ndarray:
        """The codec half of :meth:`decrypt`: decode + recombine an
        already-opened secret part (lets callers time or cache the
        crypto stage separately)."""
        # Imported here: repro.serve builds on this module (its engine
        # opens envelopes with P3Decryptor), so a top-level import
        # would close the cycle.
        from repro.serve.reconstruct import reconstruct_served

        return reconstruct_served(public_jpeg, secret_part, operator=operator)
