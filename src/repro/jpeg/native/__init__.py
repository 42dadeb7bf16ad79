"""Native (C via cffi) codec kernel: the entropy coder and the upload's
per-sample pixel passes.

The kernel compiles lazily on first use and caches the shared object
under ``build/`` keyed by a source digest.  It is required:
:func:`repro.jpeg.native.kernel.require_kernel` raises
:class:`~repro.jpeg.native.kernel.NativeUnavailableError`, naming the
build error, when no compiler or cffi is available.  Importing the
package never fails.
"""

from repro.jpeg.native import kernel

__all__ = ["kernel"]
