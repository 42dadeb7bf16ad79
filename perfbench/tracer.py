"""Outside-in layer tracer for the P3 benchmark.

The tracer times calls into each layer's public functions without
touching the program: it replaces every binding of a traced function in
every loaded ``repro.*`` module (``from x import f`` copies the
reference, so one function can have several bindings) with a wrapper
that records a span.  Spans nest on one stack, because the benchmark
keeps one request outstanding; a span's self time is its duration minus
the spans it encloses.

Each target names the function by ``module:qualname`` and the span key
its time is booked under.  ``transforms.resize`` is split at call time
by whether a ``system.psp`` span encloses the call (the provider's
transcode) or not (P3's Eq. 2 operator).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

PSP_KEYS = ("system.psp.upload", "system.psp.download")


def _blocks(args: tuple) -> int:
    return int(args[0].size // 64)


def _envelope_bytes(args: tuple) -> int:
    return len(args[1])


@dataclass(frozen=True)
class Target:
    """One traced function: where it lives and the span key it books to."""

    where: str  # "module:qualname"
    key: str
    amount: Callable[[tuple], int] | None = None


TARGETS: tuple[Target, ...] = (
    # front end
    Target("repro.system.gateway:P3Gateway.handle", "system.gateway"),
    Target("repro.system.gateway:P3Gateway.view_request", "system.gateway"),
    Target("repro.system.gateway:pixel_response", "system.gateway"),
    Target("repro.serve.async_gateway:AsyncGateway.handle", "serve.async_gateway"),
    # serving
    Target("repro.serve.engine:ServingEngine.serve", "serve.engine"),
    Target("repro.serve.engine:ServingEngine.serve_cached", "serve.engine"),
    # backends
    Target("repro.system.psp:PhotoSharingProvider.upload", "system.psp.upload"),
    Target("repro.system.psp:PhotoSharingProvider.download", "system.psp.download"),
    Target("repro.system.storage:CloudStorage.get", "system.storage"),
    Target("repro.system.storage:CloudStorage.put", "system.storage"),
    # P3 core
    Target("repro.core.encryptor:P3Encryptor.encrypt_jpeg", "core.encryptor"),
    Target("repro.core.splitting:split_image", "core.splitting"),
    Target("repro.core.serialization:serialize_secret", "core.serialization"),
    Target("repro.core.serialization:deserialize_secret", "core.serialization"),
    Target("repro.crypto.envelope:seal_envelope", "crypto.envelope", _envelope_bytes),
    Target("repro.crypto.envelope:open_envelope", "crypto.envelope", _envelope_bytes),
    Target("repro.core.linear:reconstruct_transformed_planes", "core.linear"),
    Target("repro.core.reconstruction:recombine", "core.reconstruction"),
    # transforms
    Target("repro.transforms.resize:resize_plane", "transforms.resize"),
    # codec
    Target("repro.jpeg.markers:parse_segments", "jpeg.markers"),
    Target("repro.jpeg.decoder:decode_to_coefficients", "jpeg.decoder.entropy"),
    Target("repro.jpeg.decoder:coefficients_to_planes", "jpeg.decoder.planes"),
    Target("repro.jpeg.codec:encode_coefficients", "jpeg.encoder.entropy"),
    Target("repro.jpeg.dct:inverse_dct", "jpeg.dct.idct", _blocks),
    Target("repro.jpeg.dct:forward_dct", "jpeg.dct.fdct", _blocks),
    Target("repro.jpeg.quantization:quantize", "jpeg.quantization"),
    Target("repro.jpeg.quantization:dequantize", "jpeg.quantization"),
    Target("repro.jpeg.color:rgb_to_ycbcr", "jpeg.color"),
    Target("repro.jpeg.color:ycbcr_to_rgb", "jpeg.color"),
)


class LayerTracer:
    """Span recorder over the bindings of :data:`TARGETS`.

    Use as a context manager around each traced block; bindings are
    restored on exit and totals accumulate across blocks.  Totals are
    kept per span key: ``self_s`` and ``incl_s`` (outermost span of a
    key only) in seconds, ``calls``, and ``amount`` (blocks or bytes,
    for targets that count them).
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.amount: dict[str, int] = {}
        self.bindings = 0
        self._stack: list[list] = []  # [key, start, child_s]
        self._open: dict[str, int] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, target: Target, args: tuple) -> list:
        key = target.key
        if key == "transforms.resize":
            inside_psp = any(self._open.get(k) for k in PSP_KEYS)
            key = "transforms.resize.psp" if inside_psp else "transforms.resize.p3"
        self.calls[key] = self.calls.get(key, 0) + 1
        if target.amount is not None:
            self.amount[key] = self.amount.get(key, 0) + target.amount(args)
        self._open[key] = self._open.get(key, 0) + 1
        frame = [key, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        key, start, child_s = frame
        duration = end - start
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span stack out of order at {key}")
        self._open[key] -= 1
        self.self_s[key] = self.self_s.get(key, 0.0) + duration - child_s
        if not self._open[key]:
            self.incl_s[key] = self.incl_s.get(key, 0.0) + duration
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                frame = tracer._enter(target, args)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(target, args)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    # -- bindings ---------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every target in loaded repro modules.

        Raises when a target cannot be resolved, so a refactor that
        moves a traced function fails the traced run instead of
        reading zero.
        """
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        namespaces: list[Any] = []
        for module in modules:
            namespaces.append(module)
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == module.__name__:
                    namespaces.append(value)
        bindings = 0
        for target in TARGETS:
            module_name, qualname = target.where.split(":")
            owner: Any = sys.modules.get(module_name)
            if owner is None:
                raise RuntimeError(f"traced module {module_name} is not loaded")
            try:
                for part in qualname.split("."):
                    owner = inspect.getattr_static(owner, part)
            except AttributeError:
                raise RuntimeError(f"traced function {target.where} not found") from None
            original = owner
            wrapper = self._wrap(original, target)
            found = 0
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._restore.append((namespace, attr, value))
                        setattr(namespace, attr, wrapper)
                        found += 1
            if not found:
                raise RuntimeError(f"no binding found for {target.where}")
            bindings += found
        self.bindings = bindings

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._restore):
            setattr(namespace, attr, value)
        self._restore.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
