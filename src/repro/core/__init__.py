"""The P3 algorithm (paper Section 3).

* :mod:`repro.core.splitting` — sender-side threshold splitting of
  quantized DCT coefficients into public and secret parts.
* :mod:`repro.core.reconstruction` — recipient-side recombination,
  exact in the coefficient domain (Eq. 1).
* :mod:`repro.core.linear` — pixel-domain reconstruction when the PSP
  has applied a linear transform to the public part (Eq. 2).
* :class:`P3Encryptor` / :class:`P3Decryptor` — the end-to-end sender
  and recipient operations including serialization and AES encryption.

The split, the recombination and the correction term take one threshold
T, or per-block maps: one ``(blocks_y, blocks_x)`` array per component.
"""

from repro.core.config import P3Config
from repro.core.decryptor import P3Decryptor
from repro.core.encryptor import P3Encryptor
from repro.core.reconstruction import (
    correction_image,
    recombine,
)
from repro.core.splitting import SplitResult, split_image

__all__ = [
    "P3Config",
    "P3Encryptor",
    "P3Decryptor",
    "SplitResult",
    "split_image",
    "recombine",
    "correction_image",
]
