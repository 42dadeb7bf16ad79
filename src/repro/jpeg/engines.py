"""Codec engine registry and selection.

Two engines implement the entropy codec:

* ``native`` — the C kernel (cffi), built on first use.  Every library
  caller runs it.
* ``scalar`` — the per-symbol T.81 reference implementation, kept as
  the native engine's test oracle.

The kernel is required.  When it cannot build, the first codec call
that needs it raises
:class:`~repro.jpeg.native.kernel.NativeUnavailableError` naming the
build error; ``engine="scalar"`` never needs it, and import never
fails.
"""

from __future__ import annotations

from typing import Any

from repro.jpeg.native import kernel as native_kernel

ENGINES = ("scalar", "native")


def resolve_engine(engine: str | None = None) -> str:
    """Resolve a user-facing engine request to a concrete engine.

    ``None`` means the production engine, ``native``; ``"scalar"`` is
    the T.81 oracle.
    """
    if engine is None:
        return "native"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown codec engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


def engine_info() -> dict[str, Any]:
    """Introspection payload for /stats, the CLI, and benchmarks."""
    return {
        "engines": list(ENGINES),
        "default": resolve_engine(),
        "native": native_kernel.status(),
    }
