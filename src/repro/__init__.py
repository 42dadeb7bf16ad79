"""P3: Toward Privacy-Preserving Photo Sharing — full reproduction.

This package reproduces the system described in

    Moo-Ryong Ra, Ramesh Govindan, Antonio Ortega,
    "P3: Toward Privacy-Preserving Photo Sharing", NSDI 2013.

The public API re-exports the most commonly used entry points:

* :mod:`repro.api` — the session layer: :class:`~repro.api.P3Session`
  over pluggable PSP/storage backends, plus the parallel batch
  pipeline (start here; see that module's quickstart).
* :class:`repro.core.P3Config`, :class:`repro.core.P3Encryptor`,
  :class:`repro.core.P3Decryptor` — the P3 algorithm (paper Section 3).
* :mod:`repro.jpeg` — a from-scratch baseline/progressive JPEG codec with
  quantized-coefficient access (the substrate P3 is inserted into).
* :mod:`repro.system` — PSP simulators, the HTTP gateway and app, and
  storage (Section 4).
* :mod:`repro.vision` — the attack suite used in the evaluation
  (Canny, Viola-Jones, SIFT, Eigenfaces) plus quality metrics.
* :mod:`repro.datasets` — deterministic synthetic corpora standing in for
  USC-SIPI, INRIA, Caltech Faces and Color FERET.
"""

from repro.core import P3Config, P3Decryptor, P3Encryptor, SplitResult

__version__ = "1.1.0"

__all__ = [
    "P3Config",
    "P3Encryptor",
    "P3Decryptor",
    "P3Session",
    "SplitResult",
    "__version__",
]


def __getattr__(name: str):
    if name == "P3Session":  # lazily — the session layer pulls in repro.system
        from repro.api import P3Session

        return P3Session
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
