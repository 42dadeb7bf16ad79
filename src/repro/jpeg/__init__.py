"""A from-scratch JPEG codec with quantized-coefficient access.

This subpackage is the substrate the P3 algorithm is inserted into
(paper Section 3.2: "conceptually, inserted into the JPEG compression
pipeline after the quantization step").  It implements:

* baseline sequential DCT encoding and decoding (ITU-T T.81),
* progressive encoding/decoding (the mode Facebook transcodes uploads
  into).  One encoder runs any scan script (:mod:`repro.jpeg.scans`):
  spectral selection by default, or successive approximation,
* direct access to quantized DCT coefficients without pixel decoding
  (the equivalent of ``jpegio``), which is what the P3 splitter uses.

The main entry points are :func:`encode_rgb`, :func:`encode_gray`,
:func:`decode`, :func:`decode_coefficients` and
:func:`encode_coefficients` in :mod:`repro.jpeg.codec`.

The codec kernel
----------------

A small C kernel (compiled on first use via cffi) runs each scan's
entire symbol loop, encode and decode, and the upload's per-sample
pixel passes (:mod:`repro.jpeg.native`).  It is required: it needs a C
compiler (``cc``/``gcc``) and ``cffi`` at first use, and the compiled
artifact is cached under ``build/`` keyed by a source digest.  When it
cannot compile or load, the first codec call that needs it raises
:class:`~repro.jpeg.native.kernel.NativeUnavailableError` naming the
build error; import never fails.  :func:`engine_info` reports whether
the kernel loaded (and the build error, if any) for deployment
verification.

The per-symbol ITU-T T.81 reference the kernel replaced is the
kernel's test oracle and lives with the tests
(``tests/jpeg/scalar_codec.py``): byte-identical encodes and
coefficient-identical decodes.
"""

from repro.jpeg.codec import (
    decode,
    decode_coefficients,
    decode_gray,
    encode_coefficients,
    encode_gray,
    encode_rgb,
    image_info,
)
from repro.jpeg.engines import engine_info
from repro.jpeg.structures import ComponentInfo, CoefficientImage

__all__ = [
    "encode_rgb",
    "encode_gray",
    "encode_coefficients",
    "decode",
    "decode_gray",
    "decode_coefficients",
    "image_info",
    "CoefficientImage",
    "ComponentInfo",
    "engine_info",
]
