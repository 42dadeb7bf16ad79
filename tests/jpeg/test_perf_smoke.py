"""Opt-in perf smoke test: a regression to the per-bit path fails here.

The native kernel decodes a dense 512x512 quality-75 image in ~10 ms,
the scalar reference in ~10 s.  The budgets below are generous
multiples of those (slow CI boxes must stay green) but still fail hard
when a hot path regresses: the native budget trips if the C kernel
stops being used, the default budget trips if the default reroutes to
the scalar engine.

The upload path's array-speed layers have relative budgets instead:
each is timed against its oracle from ``tests/jpeg/oracles.py`` in the
same process, and the native encode against the native decode of its
own output, so the runner's speed cancels out and a regression back to
einsum, per-byte or numpy-tokenizer speed fails on any machine.

Run with ``python -m pytest -m slow tests/jpeg/test_perf_smoke.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.jpeg import markers
from repro.jpeg.codec import (
    decode_coefficients,
    encode_coefficients,
    encode_gray,
)
from repro.jpeg.dct import forward_dct
from repro.jpeg.huffman import build_optimized_table
from tests.jpeg.oracles import (
    bytewise_find_scan_end,
    einsum_forward_dct,
    scan_optimized_table,
)

pytestmark = pytest.mark.slow

#: Wall-clock ceilings (seconds) for the default engine.  Scalar
#: reference: ~9s.  5s keeps slow CI boxes green while still failing
#: hard on a per-bit regression.
DECODE_BUDGET_SECONDS = 5.0
ENCODE_BUDGET_SECONDS = 5.0

#: Ceiling for the native kernel specifically: ~11ms on a dev box, 25x
#: headroom for CI noise while still well below any Python-level decode
#: loop — trips when the C scan loops stop being used.
NATIVE_DECODE_BUDGET_SECONDS = 0.25

#: Ceiling for the native encode of a dense 512px image, as a multiple
#: of the native decode of its own output in the same process.  Both
#: are one C loop per scan; on a 2-vCPU KVM guest the encode's two
#: passes took ~2x the decode, where the numpy tokenizers it replaced
#: took 8-9x.
ENCODE_OVER_DECODE_CEILING = 3.0

#: Minimum speedups over the oracles.  On a 2-vCPU KVM guest the GEMM
#: FDCT ran 22-24x the einsum on 4096 blocks, the heap builder 7-27x
#: the scan on 162 symbols (the size of the Annex K AC table) and
#: ``parse_segments`` 50-60x the byte loop on a 467 KB stream.
FDCT_SPEEDUP_FLOOR = 4.0
HUFFMAN_SPEEDUP_FLOOR = 4.0
MARKER_SPEEDUP_FLOOR = 10.0


@pytest.fixture(scope="module")
def dense_512_jpeg() -> bytes:
    rng = np.random.default_rng(0)
    ramp = np.linspace(0, 40, 512)
    image = np.add.outer(np.sin(ramp) * 60, np.cos(ramp * 1.7) * 60)
    image = np.clip(image + 128 + rng.normal(0, 25, (512, 512)), 0, 255)
    return encode_gray(image, quality=75)


def test_decode_512_within_budget(dense_512_jpeg):
    start = time.perf_counter()
    image = decode_coefficients(dense_512_jpeg)
    elapsed = time.perf_counter() - start
    assert image.width == 512 and image.height == 512
    assert elapsed < DECODE_BUDGET_SECONDS, (
        f"512x512 decode took {elapsed:.2f}s (budget "
        f"{DECODE_BUDGET_SECONDS}s) — did the entropy hot path regress "
        "to the per-bit reference?"
    )


def test_native_decode_512_within_budget(dense_512_jpeg):
    decode_coefficients(dense_512_jpeg, engine="native")  # warm up
    best = min(
        _timed(lambda: decode_coefficients(dense_512_jpeg, engine="native"))
        for _ in range(3)
    )
    assert best < NATIVE_DECODE_BUDGET_SECONDS, (
        f"native 512x512 decode took {best * 1000:.1f}ms (budget "
        f"{NATIVE_DECODE_BUDGET_SECONDS * 1000:.0f}ms) — is the C "
        "kernel actually being used?"
    )


def test_native_encode_within_decode_budget(dense_512_jpeg):
    image = decode_coefficients(dense_512_jpeg, engine="native")
    output = encode_coefficients(image, engine="native")
    decode_coefficients(output, engine="native")  # warm up
    encode = min(
        _timed(lambda: encode_coefficients(image, engine="native"))
        for _ in range(7)
    )
    decode = min(
        _timed(lambda: decode_coefficients(output, engine="native"))
        for _ in range(7)
    )
    assert encode < ENCODE_OVER_DECODE_CEILING * decode, (
        f"native 512x512 encode took {encode * 1000:.1f}ms, "
        f"{encode / decode:.1f}x its decode ({decode * 1000:.1f}ms; ceiling "
        f"{ENCODE_OVER_DECODE_CEILING}x) — is the scan coded in the C kernel?"
    )


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def _speedup(fast, slow, repeats: int = 7) -> float:
    """Best-of-``repeats`` time of ``slow`` over that of ``fast``."""
    fast()  # warm up
    return min(_timed(slow) for _ in range(repeats)) / min(
        _timed(fast) for _ in range(repeats)
    )


def test_gemm_fdct_beats_einsum():
    blocks = np.random.default_rng(2).uniform(-128, 127, (4096, 8, 8))
    speedup = _speedup(
        lambda: forward_dct(blocks), lambda: einsum_forward_dct(blocks)
    )
    assert speedup >= FDCT_SPEEDUP_FLOOR, (
        f"forward_dct is only {speedup:.1f}x the einsum on 4096 blocks "
        f"(floor {FDCT_SPEEDUP_FLOOR}x) — is it still a GEMM?"
    )


def test_heap_tables_beat_scan():
    counts = np.random.default_rng(3).integers(1, 5000, 162)
    frequencies = {symbol: int(count) for symbol, count in enumerate(counts)}
    speedup = _speedup(
        lambda: build_optimized_table(frequencies),
        lambda: scan_optimized_table(frequencies),
    )
    assert speedup >= HUFFMAN_SPEEDUP_FLOOR, (
        f"build_optimized_table is only {speedup:.1f}x the scan on 162 "
        f"symbols (floor {HUFFMAN_SPEEDUP_FLOOR}x)"
    )


def test_parse_segments_beats_byte_loop(monkeypatch):
    noise = np.random.default_rng(4).normal(128, 60, (768, 768))
    data = encode_gray(np.clip(noise, 0, 255), quality=95)
    assert len(data) >= 300_000

    def parse_byte_by_byte():
        with monkeypatch.context() as patch:
            patch.setattr(markers, "_find_scan_end", bytewise_find_scan_end)
            markers.parse_segments(data)

    speedup = _speedup(lambda: markers.parse_segments(data), parse_byte_by_byte)
    assert speedup >= MARKER_SPEEDUP_FLOOR, (
        f"parse_segments is only {speedup:.1f}x the byte loop on a "
        f"{len(data) // 1000} KB stream (floor {MARKER_SPEEDUP_FLOOR}x)"
    )


def test_encode_512_within_budget():
    rng = np.random.default_rng(1)
    image = np.clip(rng.normal(128, 40, (512, 512)), 0, 255)
    start = time.perf_counter()
    data = encode_gray(image, quality=75)
    elapsed = time.perf_counter() - start
    assert data.startswith(b"\xff\xd8")
    assert elapsed < ENCODE_BUDGET_SECONDS, (
        f"512x512 encode took {elapsed:.2f}s (budget "
        f"{ENCODE_BUDGET_SECONDS}s)"
    )
