"""Corpus batch pipeline: serial vs pooled executors through `P3Session`.

Uploads a synthetic camera-roll corpus with :meth:`P3Session.batch_upload`
and downloads it back with :meth:`P3Session.batch_download` under each
executor kind, records throughput into
``BENCH_batch_pipeline.json``, and verifies that every executor
produces *byte-identical* public JPEGs and reconstructions (the
pipeline must never trade correctness for parallelism — the run fails
hard if it does).

The PSP side uses a passthrough backend registered on the fly — one
``register_psp`` call, which is also the extensibility demo — so the
measurement isolates the client pipeline (encode + split + seal /
decode + decrypt + recombine) instead of timing the PSP simulator's
re-encoding.  Process-pool speedup scales with available cores; the
recorded ``cpu_count`` says what the numbers mean on this machine.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_batch_pipeline.py
    PYTHONPATH=src python benchmarks/bench_batch_pipeline.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from repro.api import P3Session, register_psp
from repro.core import P3Config
from repro.datasets import iter_corpus_jpegs

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


class PassthroughPSP:
    """A PSP that stores uploads verbatim (an archival provider).

    No re-encode, no access control, no dynamic transforms — the
    minimal conforming :class:`~repro.api.backends.PSPBackend`, so the
    benchmark times the P3 pipeline rather than the PSP model.
    """

    name = "passthrough"

    def __init__(self) -> None:
        self._photos: dict[str, bytes] = {}
        self._counter = 0

    def upload(
        self, data: bytes, owner: str, viewers: set[str] | None = None
    ) -> str:
        if data[:2] != b"\xff\xd8":
            raise ValueError("not a JPEG")
        self._counter += 1
        photo_id = f"ph{self._counter:06d}"
        self._photos[photo_id] = bytes(data)
        return photo_id

    def download(
        self,
        photo_id: str,
        requester: str,
        resolution: int | None = None,
        crop_box: tuple[int, int, int, int] | None = None,
    ) -> bytes:
        return self._photos[photo_id]


register_psp("passthrough", PassthroughPSP, replace=True)


def run(
    count: int, size: int, quality: int, workers: int, executors: list[str]
) -> dict:
    corpus = list(iter_corpus_jpegs("usc", count, size=size, quality=quality))
    print(
        f"corpus: {count} x {size}px q{quality} "
        f"({sum(len(j) for j in corpus)} JPEG bytes), "
        f"workers={workers}, cpu_count={os.cpu_count()}"
    )

    per_executor: dict[str, dict] = {}
    reference: dict[str, list] = {}
    identical = {"public_jpegs": True, "reconstructions": True}
    for kind in executors:
        config = P3Config(executor=kind, workers=workers)
        session = P3Session.create(
            psp="passthrough", storage="dropbox", user="bench", config=config
        )
        up = session.batch_upload(corpus, album="bench")
        if not up.ok:
            raise SystemExit(f"{kind} batch_upload failed: {up.failures}")
        ids = [record.photo_id for record in up.results]
        down = session.batch_download(ids, album="bench")
        if not down.ok:
            raise SystemExit(f"{kind} batch_download failed: {down.failures}")

        publics = [session.psp.download(i, "bench") for i in ids]
        recons = [pixels.tobytes() for pixels in down.results]
        if not reference:
            reference = {"publics": publics, "recons": recons}
        else:
            same_public = publics == reference["publics"]
            same_recon = recons == reference["recons"]
            identical["public_jpegs"] &= same_public
            identical["reconstructions"] &= same_recon

        per_executor[kind] = {
            "workers": up.workers,
            "upload_s": round(up.elapsed_s, 4),
            "upload_imgs_per_s": round(up.throughput, 2),
            "download_s": round(down.elapsed_s, 4),
            "download_imgs_per_s": round(down.throughput, 2),
            "bytes_public": up.bytes_public,
            "bytes_secret": up.bytes_secret,
        }
        print(
            f"{kind:8s} upload {up.throughput:7.2f} img/s  "
            f"download {down.throughput:7.2f} img/s  "
            f"(x{up.workers} workers)"
        )

    speedup = {}
    if "serial" in per_executor:
        serial = per_executor["serial"]
        for kind, stats in per_executor.items():
            if kind == "serial":
                continue
            speedup[kind] = {
                "upload": round(
                    stats["upload_imgs_per_s"]
                    / max(serial["upload_imgs_per_s"], 1e-9),
                    2,
                ),
                "download": round(
                    stats["download_imgs_per_s"]
                    / max(serial["download_imgs_per_s"], 1e-9),
                    2,
                ),
            }
            print(
                f"{kind} vs serial: upload {speedup[kind]['upload']}x, "
                f"download {speedup[kind]['download']}x"
            )

    if not all(identical.values()):
        raise SystemExit(
            f"executors disagreed on output bytes: {identical} — "
            "the batch pipeline is broken"
        )
    print("byte-identical outputs across executors: OK")
    if os.cpu_count() and os.cpu_count() < workers:
        print(
            f"note: only {os.cpu_count()} CPU(s) visible; process-pool "
            f"speedup needs >= {workers} cores to show"
        )

    return {
        "benchmark": "batch_pipeline",
        "description": (
            "P3Session corpus batch upload/download throughput per "
            "executor kind; speedups are against the serial kind on "
            "this machine (cpu_count below)"
        ),
        "cpu_count": os.cpu_count(),
        "corpus": {
            "kind": "usc",
            "count": count,
            "size": size,
            "quality": quality,
        },
        "workers": workers,
        "executors": per_executor,
        "speedup_vs_serial": speedup,
        "byte_identical": identical,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=16)
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--quality", type=int, default=85)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--executors",
        nargs="+",
        default=["serial", "process"],
        choices=["serial", "thread", "process"],
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast configuration for CI (still verifies identity)",
    )
    args = parser.parse_args()
    if args.smoke:
        args.count, args.size, args.workers = 4, 128, 2

    result = run(
        args.count, args.size, args.quality, args.workers, args.executors
    )
    result["smoke"] = args.smoke
    OUTPUT_DIR.mkdir(exist_ok=True)
    # A smoke run must not overwrite the committed full run.
    suffix = ".smoke.json" if args.smoke else ".json"
    path = OUTPUT_DIR / f"BENCH_batch_pipeline{suffix}"
    path.write_text(json.dumps(result, indent=2))
    print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
