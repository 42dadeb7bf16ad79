"""Codec engine registry and selection.

Three engines implement the entropy codec, each an oracle for the next:

* ``scalar`` — the per-symbol T.81 reference implementation.
* ``numpy`` — the vectorized fast path (differential oracle for native).
* ``native`` — the C kernel (cffi); built lazily, falls back to numpy
  when the compiler or cffi is missing or ``REPRO_NATIVE=0`` is set.
"""

from __future__ import annotations

from typing import Any

from repro.jpeg.native import kernel as native_kernel

ENGINES = ("scalar", "numpy", "native")


def native_available() -> bool:
    """True when the native kernel is loadable right now."""
    return native_kernel.load() is not None


def default_engine() -> str:
    """Best fast engine currently available: native else numpy."""
    return "native" if native_available() else "numpy"


def resolve_engine(engine: str | None = None) -> str:
    """Resolve a user-facing engine request to a concrete engine.

    ``None`` means "pick for me": the best fast engine.  ``"scalar"``
    is the T.81 oracle.  An explicit ``native`` request degrades to
    ``numpy`` when the kernel is unavailable — results are identical,
    only throughput differs.
    """
    if engine is None:
        return default_engine()
    if engine not in ENGINES:
        raise ValueError(
            f"unknown codec engine {engine!r}; expected one of {ENGINES}"
        )
    if engine == "native" and not native_available():
        return "numpy"
    return engine


def engine_info() -> dict[str, Any]:
    """Introspection payload for /stats, the CLI, and benchmarks."""
    return {
        "engines": list(ENGINES),
        "default": default_engine(),
        "native": native_kernel.status(),
    }
