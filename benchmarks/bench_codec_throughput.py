"""Codec throughput trajectory: seed (scalar) -> native.

Times encode and decode (coefficient-level, the P3 hot path) for
baseline, progressive (spectral selection) and progressive-sa
(successive approximation) streams at several image sizes, on both
engines, and writes ``BENCH_codec_throughput.json`` with the
trajectory: per-engine seconds plus the native kernel's decode speedup
over the scalar seed.  The scalar reference is only timed up to
``--reference-max-size`` (default 512 — the per-bit decoder needs ~10s
per 512px image, minutes at 1024).

Cross-engine identity is enforced, not assumed: the native encode must
be byte-identical and the native decode coefficient-identical to the
scalar seed's, and the benchmark **hard-fails** (exit 1) on any
mismatch — a perf number for a stream that diverges from the oracle
would be worthless.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_codec_throughput.py
    PYTHONPATH=src python benchmarks/bench_codec_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.jpeg.codec import gray_to_coefficients
from repro.jpeg.decoder import decode_to_coefficients
from repro.jpeg.encoder import encode_baseline, encode_progressive
from repro.jpeg.engines import engine_info
from repro.jpeg.scans import default_sa_script

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def _test_image(size: int) -> np.ndarray:
    """Textured image with realistic coefficient density at quality 75."""
    rng = np.random.default_rng(size)
    ramp = np.linspace(0, size / 12.8, size)
    image = np.add.outer(np.sin(ramp) * 60, np.cos(ramp * 1.7) * 60)
    return np.clip(image + 128 + rng.normal(0, 25, (size, size)), 0, 255)


def _time_call(function, repeats: int) -> float:
    """Best-of-N wall-clock seconds for one call."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _encode_sa(image, engine=None) -> bytes:
    script = default_sa_script(len(image.components))
    return encode_progressive(image, script, engine=engine)


def _coefficient_bytes(image) -> tuple[bytes, ...]:
    return tuple(
        component.coefficients.tobytes() for component in image.components
    )


def run(
    sizes: list[int],
    quality: int,
    repeats: int,
    reference_max_size: int,
) -> dict:
    mismatches = 0
    trajectory = []
    for size in sizes:
        image = gray_to_coefficients(_test_image(size), quality=quality)
        time_scalar = size <= reference_max_size
        for mode, encode in (
            ("baseline", encode_baseline),
            ("progressive", encode_progressive),
            ("progressive-sa", _encode_sa),
        ):
            # The scalar seed's stream is the identity oracle even at
            # sizes where it is too slow to *time* repeatedly.
            oracle = encode(image, engine="scalar")
            oracle_coefficients = _coefficient_bytes(
                decode_to_coefficients(oracle, engine="scalar")
            )
            entry = {
                "size": size,
                "mode": mode,
                "quality": quality,
                "stream_bytes": len(oracle),
                "nonzero_coefficients": image.total_nonzero(),
                "engines": {},
            }
            if time_scalar:
                entry["engines"]["scalar"] = {
                    "encode_s": _time_call(
                        lambda: encode(image, engine="scalar"), 1
                    ),
                    "decode_s": _time_call(
                        lambda: decode_to_coefficients(
                            oracle, engine="scalar"
                        ),
                        1,
                    ),
                }
            data = encode(image, engine="native")
            if data != oracle:
                mismatches += 1
                print(
                    f"ENCODE MISMATCH native vs scalar: {size}px {mode}",
                    file=sys.stderr,
                )
            decoded = _coefficient_bytes(
                decode_to_coefficients(data, engine="native")
            )
            if decoded != oracle_coefficients:
                mismatches += 1
                print(
                    f"DECODE MISMATCH native vs scalar: {size}px {mode}",
                    file=sys.stderr,
                )
            native = {
                "encode_s": _time_call(
                    lambda: encode(image, engine="native"), repeats
                ),
                "decode_s": _time_call(
                    lambda: decode_to_coefficients(data, engine="native"),
                    repeats,
                ),
            }
            if time_scalar:
                native["decode_speedup_vs_seed"] = (
                    entry["engines"]["scalar"]["decode_s"]
                    / native["decode_s"]
                )
            entry["engines"]["native"] = native
            trajectory.append(entry)
            for engine, timings in entry["engines"].items():
                speedup = timings.get("decode_speedup_vs_seed")
                print(
                    f"{size:5d}px {mode:14s} {engine:7s} "
                    f"encode {1.0 / timings['encode_s']:8.1f} img/s  "
                    f"decode {1.0 / timings['decode_s']:8.1f} img/s"
                    + (f"  ({speedup:6.1f}x vs seed)" if speedup else "")
                )
    return {
        "benchmark": "codec_throughput",
        "description": (
            "JPEG entropy codec throughput trajectory, seed (scalar "
            "T.81 reference) -> native C kernel; the native streams "
            "verified byte/coefficient-identical to the seed"
        ),
        "quality": quality,
        "engine_info": engine_info(),
        "mismatches": mismatches,
        "trajectory": trajectory,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[256, 512, 1024]
    )
    parser.add_argument("--quality", type=int, default=75)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--reference-max-size",
        type=int,
        default=512,
        help="largest size at which the slow scalar decoder is timed",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small/fast configuration for CI (one 256px size, one "
        "repeat; identity checks still run)",
    )
    args = parser.parse_args()
    if args.smoke:
        args.sizes, args.repeats = [256], 1
    result = run(
        args.sizes, args.quality, args.repeats, args.reference_max_size
    )
    OUTPUT_DIR.mkdir(exist_ok=True)
    # A smoke run must not overwrite the committed full run.
    suffix = ".smoke.json" if args.smoke else ".json"
    path = OUTPUT_DIR / f"BENCH_codec_throughput{suffix}"
    path.write_text(json.dumps(result, indent=2))
    print(f"wrote {path}")
    if result["mismatches"]:
        raise SystemExit(
            f"{result['mismatches']} cross-engine mismatch(es) — "
            "timings are meaningless for divergent streams"
        )


if __name__ == "__main__":
    main()
