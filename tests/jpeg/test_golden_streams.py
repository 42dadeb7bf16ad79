"""Golden streams: pin the bytes the simulated providers store.

The differential tests compare the codec with its scalar oracle, so a
change that moved both outputs the same way would pass them, yet it
would move the bytes ``FacebookPSP`` (progressive) and ``FlickrPSP``
(baseline) store.  These tests pin the SHA-256 of each stream, from
the codec and from the oracle, for two coefficient images built from
integers only (no FDCT), so the digests do not depend on floating
point, and read each pinned stream back on both.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.jpeg.codec import decode_coefficients
from repro.jpeg.structures import CoefficientImage, ComponentInfo
from tests.jpeg import scalar_codec
from tests.jpeg.scalar_codec import CODECS

MODES = {
    "progressive": {"progressive": True},
    "baseline": {"progressive": False},
    "baseline_restart_4": {"progressive": False, "restart_interval": 4},
}

GOLDEN = {
    ("gray", "progressive"): (
        "765a930085475b6cdf3d5afe2fe987ec67100c0c55c2e3bc26eecd6f68b2a68f"
    ),
    ("gray", "baseline"): (
        "82446eead5b428409483bb078a66ce6592f82795e76152f44c6e415d8a8d8f2e"
    ),
    ("gray", "baseline_restart_4"): (
        "b5e92eb7baf2538cca0e012e410b9bf6dd161dab652514a97dd0f26fb21c030f"
    ),
    ("4:2:0", "progressive"): (
        "246c4d0b56d60e6e9f2d418b2e48b13a98bb3ea33de88c5f8e3b79a48b36effb"
    ),
    ("4:2:0", "baseline"): (
        "c9e30f648f6389ae6b5c89ec4d61a8c8326b9e3eef9aaa29b023ade1cdc57cd5"
    ),
    ("4:2:0", "baseline_restart_4"): (
        "f1baa9ffc89ee38ab6e0cde93f5b5592ed3e4c8063770fbd60964956d6bba636"
    ),
}


def _coefficients(
    rs: np.random.RandomState, blocks_y: int, blocks_x: int
) -> np.ndarray:
    """Quantized-looking blocks: magnitudes fall with frequency so bands
    end early, every third block is flat (EOB runs), and every other
    block keeps a lone (7, 7) coefficient behind a long zero run (ZRL)."""
    u, v = np.indices((8, 8))
    raw = rs.randint(-60, 61, size=(blocks_y, blocks_x, 8, 8))
    coefficients = np.sign(raw) * (np.abs(raw) // (1 + u + v) ** 2)
    flat = coefficients.reshape(-1, 64)
    flat[::3, 1:] = 0
    flat[::2, 63] = rs.randint(1, 4, size=flat[::2].shape[0])
    flat[:, 0] = rs.randint(-300, 301, size=flat.shape[0])
    return coefficients.astype(np.int32)


def _image(kind: str) -> CoefficientImage:
    rs = np.random.RandomState(17)
    u, v = np.indices((8, 8))
    luma_table = (1 + 3 * (u + v)).astype(np.int32)
    if kind == "gray":
        luma = ComponentInfo(1, 1, 1, luma_table, _coefficients(rs, 4, 5))
        return CoefficientImage(width=37, height=29, components=[luma])
    chroma_table = (2 + 4 * (u + v)).astype(np.int32)
    components = [ComponentInfo(1, 2, 2, luma_table, _coefficients(rs, 3, 5))]
    for identifier in (2, 3):
        components.append(
            ComponentInfo(
                identifier, 1, 1, chroma_table, _coefficients(rs, 2, 3)
            )
        )
    return CoefficientImage(width=40, height=24, components=components)


@pytest.mark.parametrize("engine", CODECS)
@pytest.mark.parametrize("kind, mode", list(GOLDEN))
def test_stream_digest_is_pinned(kind, mode, engine):
    image = _image(kind)
    data = CODECS[engine].encode_coefficients(image, **MODES[mode])
    assert hashlib.sha256(data).hexdigest() == GOLDEN[kind, mode]
    decoded = decode_coefficients(data)
    for ours, theirs in zip(decoded.components, image.components):
        assert np.array_equal(ours.coefficients, theirs.coefficients)


@pytest.mark.parametrize("engine", CODECS)
@pytest.mark.parametrize("kind, mode", list(GOLDEN))
def test_pinned_stream_decodes_on_every_engine(kind, mode, engine):
    image = _image(kind)
    data = scalar_codec.encode_coefficients(image, **MODES[mode])
    assert hashlib.sha256(data).hexdigest() == GOLDEN[kind, mode]
    decoded = CODECS[engine].decode_coefficients(data)
    assert (decoded.width, decoded.height) == (image.width, image.height)
    assert len(decoded.components) == len(image.components)
    for ours, theirs in zip(decoded.components, image.components):
        assert (ours.identifier, ours.h_sampling, ours.v_sampling) == (
            theirs.identifier,
            theirs.h_sampling,
            theirs.v_sampling,
        )
        assert np.array_equal(ours.quant_table, theirs.quant_table)
        assert np.array_equal(ours.coefficients, theirs.coefficients)
