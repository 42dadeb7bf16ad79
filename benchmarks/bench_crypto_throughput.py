"""AES-CTR crypto throughput: vectorized batch cipher vs scalar reference.

Times :func:`repro.crypto.modes.ctr_transform` and the scalar FIPS-197
reference it replaced (the test oracle ``tests/crypto/oracles.py``) at
several payload sizes (the secret part of a P3 photo is CTR-shaped),
verifies fast-vs-scalar *byte identity* on every measured payload —
the run fails hard on any mismatch — and measures the end-to-end
effect: upload (split + encode + seal) and download (open +
reconstruct) images/sec through the
:class:`~repro.core.encryptor.P3Encryptor` split and the
:class:`~repro.core.decryptor.P3Decryptor` reconstruction, with the
envelope sealed and opened by production's
``seal_envelope``/``open_envelope`` vs the oracle's.  Results land in
``BENCH_crypto_throughput.json``.

The scalar reference is only timed up to ``--reference-max-bytes``
(default 1 MiB ≈ a few seconds; 8 MiB would take the better part of a
minute) — byte identity at larger sizes is still checked against a
scalar-computed prefix, which is valid because a CTR prefix depends
only on the same leading counter blocks.

Run standalone from the repository root (the oracle lives under
``tests/``, so the root goes on the path too)::

    PYTHONPATH=src:. python benchmarks/bench_crypto_throughput.py
    PYTHONPATH=src:. python benchmarks/bench_crypto_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

KIB = 1024
MIB = 1024 * 1024

_KEY = bytes.fromhex("603deb1015ca71be2b73aef0857d77811f352c073b6108d7")
_NONCE = b"p3-crypto-bn"  # 12 bytes, the envelope's nonce size


def _time_call(function, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def bench_ctr(
    sizes: list[int], reference_max_bytes: int, repeats: int
) -> tuple[list[dict], int]:
    from repro.crypto.modes import ctr_transform
    from tests.crypto import oracles

    rng = np.random.default_rng(38)
    entries = []
    mismatches = 0
    for size in sizes:
        payload = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        fast_s = _time_call(
            lambda: ctr_transform(_KEY, _NONCE, payload), repeats
        )
        entry = {
            "payload_bytes": size,
            "fast_s": fast_s,
            "fast_mb_per_s": size / MIB / fast_s,
        }
        # Byte identity: full payload when the scalar run is affordable,
        # a scalar-computed prefix otherwise (same counters => valid).
        check_bytes = min(size, reference_max_bytes)
        fast_out = ctr_transform(_KEY, _NONCE, payload)
        scalar_prefix = oracles.ctr_transform(
            _KEY, _NONCE, payload[:check_bytes]
        )
        identical = fast_out[:check_bytes] == scalar_prefix
        entry["identical_bytes_checked"] = check_bytes
        entry["byte_identical"] = identical
        if not identical:
            mismatches += 1
        if size <= reference_max_bytes:
            scalar_s = _time_call(
                lambda: oracles.ctr_transform(_KEY, _NONCE, payload), 1
            )
            entry["scalar_s"] = scalar_s
            entry["scalar_mb_per_s"] = size / MIB / scalar_s
            entry["speedup"] = scalar_s / fast_s
        entries.append(entry)
        speedup = entry.get("speedup")
        print(
            f"CTR {size / KIB:8.0f} KiB  fast {entry['fast_mb_per_s']:7.1f} "
            f"MB/s"
            + (
                f"  scalar {entry['scalar_mb_per_s']:6.3f} MB/s "
                f"({speedup:.0f}x)"
                if speedup
                else ""
            )
            + ("" if identical else "  *** BYTE MISMATCH ***")
        )
    return entries, mismatches


def bench_end_to_end(count: int, size: int, quality: int) -> tuple[dict, int]:
    from repro.core import P3Decryptor, P3Encryptor
    from repro.core.serialization import deserialize_secret, serialize_secret
    from repro.crypto.envelope import NONCE_SIZE, open_envelope, seal_envelope
    from repro.datasets import iter_corpus_jpegs
    from tests.crypto import oracles

    key = _KEY[:16]
    corpus = list(
        iter_corpus_jpegs("usc", count, size=size, quality=quality)
    )
    result: dict = {
        "photos": len(corpus),
        "image_size": size,
        "quality": quality,
    }
    encryptor = P3Encryptor(key)
    decryptor = P3Decryptor(key)
    #: Each label's (seal, open): production's envelope, or the
    #: oracle's, which takes its nonce from the caller.
    envelopes = {
        "fast": (seal_envelope, open_envelope),
        "scalar": (
            lambda key, plaintext: oracles.seal_envelope(
                key, plaintext, os.urandom(NONCE_SIZE)
            ),
            oracles.open_envelope,
        ),
    }

    def upload(jpeg: bytes, label: str) -> tuple[bytes, bytes]:
        # P3Encryptor.encrypt_jpeg, with the envelope's AES chosen by
        # ``label``.
        split = encryptor.split_jpeg(jpeg)
        container = serialize_secret(split.secret, split.threshold)
        seal = envelopes[label][0]
        return encryptor.public_jpeg_bytes(split), seal(key, container)

    def download(public_jpeg: bytes, envelope: bytes, label: str):
        opened = envelopes[label][1](key, envelope)
        return decryptor.reconstruct(public_jpeg, deserialize_secret(opened))

    # One untimed round trip, so one-time costs (codec kernel load,
    # lazy imports) land in neither cipher's timing.
    download(*upload(corpus[0], "fast"), "fast")
    mismatches = 0
    photos = {}
    for label in envelopes:
        start = time.perf_counter()
        photos[label] = [upload(jpeg, label) for jpeg in corpus]
        elapsed = time.perf_counter() - start
        result[f"upload_{label}_img_per_s"] = len(corpus) / elapsed
        start = time.perf_counter()
        pixel_sets = [
            download(public_jpeg, envelope, label)
            for public_jpeg, envelope in photos[label]
        ]
        elapsed = time.perf_counter() - start
        result[f"download_{label}_img_per_s"] = len(corpus) / elapsed
        if label == "fast":
            reference_pixels = pixel_sets
        else:
            # Reconstruction must be pixel-identical across the two:
            # open the scalar-sealed envelopes with production's cipher
            # and compare against the fast run's output.
            for (public_jpeg, envelope), expected in zip(
                photos[label], reference_pixels
            ):
                pixels = download(public_jpeg, envelope, "fast")
                if not np.array_equal(pixels, expected):
                    mismatches += 1
    result["upload_speedup"] = (
        result["upload_fast_img_per_s"] / result["upload_scalar_img_per_s"]
    )
    result["download_speedup"] = (
        result["download_fast_img_per_s"]
        / result["download_scalar_img_per_s"]
    )
    print(
        f"end-to-end {len(corpus)}x{size}px: upload "
        f"{result['upload_scalar_img_per_s']:.2f} -> "
        f"{result['upload_fast_img_per_s']:.2f} img/s "
        f"({result['upload_speedup']:.1f}x), download "
        f"{result['download_scalar_img_per_s']:.2f} -> "
        f"{result['download_fast_img_per_s']:.2f} img/s "
        f"({result['download_speedup']:.1f}x)"
    )
    return result, mismatches


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[64 * KIB, MIB, 8 * MIB],
        help="CTR payload sizes in bytes",
    )
    parser.add_argument(
        "--reference-max-bytes",
        type=int,
        default=MIB,
        help="largest payload at which the scalar reference is timed",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--photos", type=int, default=8)
    parser.add_argument("--image-size", type=int, default=256)
    parser.add_argument("--quality", type=int, default=85)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI: byte-identity still fully enforced",
    )
    args = parser.parse_args()
    if args.smoke:
        args.sizes = [64 * KIB, 256 * KIB]
        args.reference_max_bytes = 64 * KIB
        args.photos = 4
        args.image_size = 128
        args.repeats = 2

    ctr_entries, ctr_mismatches = bench_ctr(
        args.sizes, args.reference_max_bytes, args.repeats
    )
    end_to_end, e2e_mismatches = bench_end_to_end(
        args.photos, args.image_size, args.quality
    )
    mismatches = ctr_mismatches + e2e_mismatches

    result = {
        "benchmark": "crypto_throughput",
        "description": (
            "AES-CTR throughput, vectorized batch cipher vs scalar "
            "FIPS-197 reference, plus end-to-end P3 upload/download "
            "images/sec with the envelope sealed and opened by "
            "production vs the scalar oracle"
        ),
        "ctr": ctr_entries,
        "end_to_end": end_to_end,
        "byte_mismatches": mismatches,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    # A smoke run must not overwrite the committed full run.
    suffix = ".smoke.json" if args.smoke else ".json"
    path = OUTPUT_DIR / f"BENCH_crypto_throughput{suffix}"
    path.write_text(json.dumps(result, indent=2))
    print(f"wrote {path}")
    if mismatches:
        print(
            f"FATAL: {mismatches} fast-vs-scalar byte mismatches",
            file=sys.stderr,
        )
        sys.exit(1)


if __name__ == "__main__":
    main()
