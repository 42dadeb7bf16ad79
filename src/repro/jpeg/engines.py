"""Codec kernel status.

The entropy codec and the upload's pixel passes run in one C kernel
(cffi), built on first use.  The kernel is required: when it cannot
build, the first codec call that needs it raises
:class:`~repro.jpeg.native.kernel.NativeUnavailableError` naming the
build error, and import never fails.  :func:`engine_info` reports
whether it loaded, for ``/stats``, the CLI and benchmarks.
"""

from __future__ import annotations

from typing import Any

from repro.jpeg.native import kernel as native_kernel


def engine_info() -> dict[str, Any]:
    """Introspection payload for /stats, the CLI, and benchmarks."""
    return {"native": native_kernel.status()}
