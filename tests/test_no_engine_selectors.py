"""One path per primitive: no codec or crypto call takes an engine selector.

The codec runs its C kernel and the envelope the vectorized AES.  The
scalar references they replaced are test oracles
(``tests/jpeg/scalar_codec.py``, ``tests/crypto/oracles.py``) that reach
production through private seams, never through an option.  These
guards fail if a public function or method of ``repro.jpeg`` or
``repro.crypto`` takes an ``engine`` or ``fast`` parameter again, or if
the engine registry comes back.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import repro.crypto
import repro.jpeg

SELECTORS = {"engine", "fast"}


def _public_callables(package):
    """``(qualified name, function)`` for every public function and
    public method defined in ``package`` and its submodules."""
    modules = [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(package.__path__, package.__name__ + ".")
    ]
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield f"{module.__name__}.{name}", value
            elif inspect.isclass(value):
                for attribute, member in vars(value).items():
                    function = getattr(member, "__func__", member)
                    if not attribute.startswith("_") and inspect.isfunction(function):
                        yield f"{module.__name__}.{name}.{attribute}", function


def test_no_public_codec_or_crypto_call_takes_a_selector():
    checked = dict(
        item for package in (repro.jpeg, repro.crypto) for item in _public_callables(package)
    )
    # The walk reaches the entry points the selectors used to sit on.
    assert {
        "repro.jpeg.codec.encode_rgb",
        "repro.jpeg.decoder.decode_to_coefficients",
        "repro.jpeg.encoder.encode_progressive",
        "repro.crypto.modes.ctr_transform",
        "repro.crypto.envelope.open_envelope",
    } <= set(checked)
    offenders = sorted(
        f"{name}({parameter})"
        for name, function in checked.items()
        for parameter in inspect.signature(function).parameters
        if parameter in SELECTORS
    )
    assert offenders == []


def test_engine_registry_is_gone():
    from repro.jpeg import engines

    for owner in (repro.jpeg, engines):
        assert not hasattr(owner, "ENGINES")
        assert not hasattr(owner, "resolve_engine")
    assert not hasattr(repro.crypto, "AES")
    assert list(engines.engine_info()) == ["native"]
