"""Serving-tier benchmark: zipfian viewer traffic vs the three-tier
cache, and concurrent multi-provider ingest.

Three measurements, one JSON artifact (``BENCH_serving.json``):

1. **Ingest overlap** — per-photo publish wall clock for one provider
   vs a 3-provider fan-out, serial vs threaded.  Provider ingest is
   network-bound against real PSPs, so each provider is wrapped with a
   fixed simulated RTT; the acceptance figure is threaded 3-provider
   upload <= 1.6x the single-provider wall clock.
2. **Serving under a zipfian trace** — a multi-user
   :class:`~repro.system.gateway.P3Gateway` replays a skewed
   popularity trace through real HTTP round trips; reports cache hit
   rate, p50/p99 latency, and cold-vs-warm speedup (acceptance:
   warm >= 5x faster than cold).
3. **Byte identity (hard-fails on mismatch)** — every photo served by
   the cached engine is compared byte-for-byte against the
   pre-refactor single path (a hand-built
   :class:`~repro.api.pipeline.DecryptTask` over raw fetches), and a
   burst of concurrent viewers must share one reconstruction while
   all seeing identical bytes.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import threading
import time

from repro.api.executors import Executor
from repro.api.fanout import FanoutPSP
from repro.api.pipeline import DecryptTask, run_decrypt_task
from repro.api.registry import DEFAULT_REGISTRY
from repro.core.config import P3Config
from repro.core.encryptor import P3Encryptor
from repro.datasets import iter_corpus_jpegs
from repro.serve.engine import ServeRequest
from repro.serve.keys import secret_blob_key
from repro.serve.trace import percentile, zipf_trace
from repro.system.client import PhotoSharingClient
from repro.system.gateway import USER_HEADER, P3Gateway
from repro.system.http import HttpRequest, build_url
from repro.system.proxy import publish_encrypted
from repro.system.storage import CloudStorage

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

PROVIDER_POOL = ("facebook", "flickr", "photobucket")
ALBUM = "bench"
#: Simulated per-request provider RTT (network-bound ingest model).
INGEST_RTT_S = 0.25


class LatencyPSP:
    """A provider behind a fixed network round-trip time."""

    def __init__(self, inner, rtt_s: float) -> None:
        self.inner = inner
        self.name = inner.name
        self.rtt_s = rtt_s

    def upload(self, data, owner, viewers=None):
        time.sleep(self.rtt_s)
        return self.inner.upload(data, owner=owner, viewers=viewers)

    def download(self, photo_id, requester, resolution=None, crop_box=None):
        time.sleep(self.rtt_s)
        return self.inner.download(
            photo_id, requester, resolution=resolution, crop_box=crop_box
        )

    def check_access(self, photo_id, requester):
        self.inner.check_access(photo_id, requester)

    def delete(self, photo_id):
        self.inner.delete(photo_id)


def bench_ingest(corpus: list[bytes], quality: int) -> dict:
    """Publish wall clock: 1 provider vs 3, serial vs threaded."""
    key = bytes(range(16))
    encryptor = P3Encryptor(key, P3Config(quality=quality))
    photos = [encryptor.encrypt_jpeg(jpeg) for jpeg in corpus]

    def publish_all(psp) -> float:
        storage = CloudStorage()
        start = time.perf_counter()
        for photo in photos:
            publish_encrypted(psp, storage, photo, ALBUM, "bench")
        return (time.perf_counter() - start) / len(photos)

    def fleet(executor):
        return FanoutPSP(
            [
                LatencyPSP(DEFAULT_REGISTRY.create_psp(name), INGEST_RTT_S)
                for name in PROVIDER_POOL
            ],
            executor=executor,
        )

    single_s = publish_all(
        LatencyPSP(DEFAULT_REGISTRY.create_psp(PROVIDER_POOL[0]), INGEST_RTT_S)
    )
    serial3_s = publish_all(fleet(None))
    threaded = fleet(Executor("thread", len(PROVIDER_POOL)))
    threaded3_s = publish_all(threaded)
    ratio = threaded3_s / single_s
    print(
        f"ingest (rtt {INGEST_RTT_S * 1000:.0f} ms/provider): "
        f"1 provider {single_s * 1000:.0f} ms/photo, "
        f"3 serial {serial3_s * 1000:.0f} ms, "
        f"3 threaded {threaded3_s * 1000:.0f} ms "
        f"({ratio:.2f}x single; target <= 1.6x)"
    )
    return {
        "rtt_s": INGEST_RTT_S,
        "single_provider_s_per_photo": round(single_s, 4),
        "serial_3provider_s_per_photo": round(serial3_s, 4),
        "threaded_3provider_s_per_photo": round(threaded3_s, 4),
        "threaded_vs_single_ratio": round(ratio, 3),
        "meets_1_6x_target": ratio <= 1.6,
        "last_ingest_timings_ms": {
            alias: round(seconds * 1000, 1)
            for alias, seconds in threaded.last_ingest_timings.items()
        },
    }


def bench_serving(
    corpus: list[bytes], quality: int, requests: int, zipf_s: float
) -> tuple[dict, P3Gateway, list]:
    """Zipfian trace through a multi-user gateway; returns receipts."""
    config = P3Config(quality=quality)
    psp = DEFAULT_REGISTRY.create_psp("facebook")
    storage = CloudStorage()
    gateway = P3Gateway(psp, storage, config)
    owner = PhotoSharingClient.for_gateway(gateway, "owner")
    viewer_names = [f"viewer{i}" for i in range(4)]
    viewers = [
        PhotoSharingClient.for_gateway(gateway, name)
        for name in viewer_names
    ]
    receipts = [
        owner.upload_photo(jpeg, ALBUM, viewers=set(viewer_names))
        for jpeg in corpus
    ]
    gateway.share_album("owner", ALBUM, *viewer_names)

    trace = zipf_trace(len(receipts), requests, s=zipf_s, seed=7)
    latencies: list[float] = []
    cold: list[float] = []
    warm: list[float] = []
    for turn, index in enumerate(trace):
        viewer = viewers[turn % len(viewers)]
        request = HttpRequest(
            method="GET",
            url=build_url(
                "https://gateway.example",
                f"/photos/{receipts[index].photo_id}",
                {"album": ALBUM},
            ),
            headers={USER_HEADER: viewer.user},
        )
        start = time.perf_counter()
        response = gateway.handle(request)
        elapsed = time.perf_counter() - start
        if not response.ok:
            raise SystemExit(
                f"gateway returned {response.status}: {response.body!r}"
            )
        latencies.append(elapsed)
        # Exact per-request provenance from the response itself —
        # robust to evictions and TTL expiry, unlike a seen-before
        # heuristic.
        is_warm = response.headers["x-cache"] == "variant-cache"
        (warm if is_warm else cold).append(elapsed)

    snapshot = gateway.engine.snapshot()
    cold_ms = sum(cold) / len(cold) * 1000 if cold else 0.0
    warm_ms = sum(warm) / len(warm) * 1000 if warm else 0.0
    speedup = cold_ms / warm_ms if warm_ms else 0.0
    print(
        f"serving: {len(trace)} requests over {len(receipts)} photos "
        f"(zipf s={zipf_s}), hit rate "
        f"{snapshot['variant_cache']['hit_rate']:.2f}, "
        f"p50 {percentile(latencies, 50) * 1000:.1f} ms, "
        f"p99 {percentile(latencies, 99) * 1000:.1f} ms, "
        f"cold {cold_ms:.1f} ms vs warm {warm_ms:.2f} ms "
        f"({speedup:.0f}x; target >= 5x)"
    )
    return (
        {
            "requests": len(trace),
            "photos": len(receipts),
            "zipf_s": zipf_s,
            "hit_rate": snapshot["variant_cache"]["hit_rate"],
            "p50_ms": round(percentile(latencies, 50) * 1000, 3),
            "p99_ms": round(percentile(latencies, 99) * 1000, 3),
            "cold_mean_ms": round(cold_ms, 3),
            "warm_mean_ms": round(warm_ms, 3),
            "warm_speedup": round(speedup, 1),
            "meets_5x_target": speedup >= 5.0,
            "engine": snapshot,
        },
        gateway,
        receipts,
    )


def verify_byte_identity(gateway: P3Gateway, receipts: list) -> int:
    """Cached serves vs the pre-refactor single path; returns mismatches."""
    keyring = gateway.keyring_for("owner")
    key = keyring.key_for(ALBUM)
    mismatches = 0
    for receipt in receipts:
        # The pre-refactor path: raw PSP fetch + storage fetch +
        # reconstruct_served, no caches anywhere.
        reference = run_decrypt_task(
            DecryptTask(
                key=key,
                public_jpeg=gateway.psp.download(
                    receipt.photo_id, requester="owner"
                ),
                secret_envelope=gateway.storage.get(
                    secret_blob_key(ALBUM, receipt.photo_id)
                ),
            )
        ).tobytes()
        served = gateway.engine.serve(
            ServeRequest(
                photo_id=receipt.photo_id,
                album=ALBUM,
                key=key,
                requester="owner",
            )
        ).pixels.tobytes()
        if served != reference:
            mismatches += 1
            print(
                f"BYTE MISMATCH cached vs single-path: {receipt.photo_id}",
                file=sys.stderr,
            )
    return mismatches


def bench_coalescing(gateway: P3Gateway, receipts: list) -> tuple[dict, int]:
    """A burst of concurrent viewers of one cold photo must share one
    reconstruction."""
    engine = gateway.engine
    engine.variant_cache.clear()
    engine.secret_cache.clear()
    engine.envelope_cache.clear()  # all three tiers: truly cold
    keyring = gateway.keyring_for("owner")
    request = ServeRequest(
        photo_id=receipts[0].photo_id,
        album=ALBUM,
        key=keyring.key_for(ALBUM),
        requester="owner",
    )
    reconstructions_before = engine.stats.reconstructions
    coalesced_before = engine.stats.coalesced
    results: list[bytes] = []
    errors: list[Exception] = []
    lock = threading.Lock()

    def view():
        try:
            payload = engine.serve(request).pixels.tobytes()
            with lock:
                results.append(payload)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=view) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    mismatch = 0 if len(set(results)) <= 1 else 1
    reconstructions = engine.stats.reconstructions - reconstructions_before
    coalesced = engine.stats.coalesced - coalesced_before
    print(
        f"coalescing: 8 concurrent viewers -> {reconstructions} "
        f"reconstruction(s), {coalesced} coalesced, "
        f"{'identical bytes' if not mismatch else 'BYTE MISMATCH'}"
        + ("" if not errors else f", {len(errors)} errors")
    )
    return (
        {
            "viewers": 8,
            "reconstructions": reconstructions,
            "coalesced": coalesced,
            "errors": len(errors),
        },
        mismatch + len(errors),
    )


def run(
    count: int,
    size: int,
    quality: int,
    requests: int,
    zipf_s: float,
):
    corpus = list(iter_corpus_jpegs("usc", count, size=size, quality=quality))
    print(
        f"corpus: {count} x {size}px q{quality} "
        f"({sum(len(j) for j in corpus)} JPEG bytes), "
        f"cpu_count={os.cpu_count()}"
    )
    ingest = bench_ingest(corpus, quality)
    serving, gateway, receipts = bench_serving(
        corpus, quality, requests, zipf_s
    )
    mismatches = verify_byte_identity(gateway, receipts)
    coalescing, failures = bench_coalescing(gateway, receipts)
    failures += mismatches
    if failures:
        raise SystemExit(
            f"{failures} byte mismatch(es)/error(s) — the serving tier "
            "is broken"
        )
    print("byte-identical to the single-path reconstruction: OK")
    return {
        "benchmark": "serving",
        "description": (
            "Concurrent serving tier: threaded multi-provider ingest "
            "overlap, zipfian-trace cache hit rate and latency "
            "percentiles through a multi-user gateway, coalescing "
            "burst; all serves verified byte-identical to the "
            "cache-free single-path reconstruction"
        ),
        "cpu_count": os.cpu_count(),
        "corpus": {
            "kind": "usc", "count": count, "size": size, "quality": quality
        },
        "ingest": ingest,
        "serving": serving,
        "coalescing": coalescing,
        "byte_identical": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=8)
    parser.add_argument("--size", type=int, default=192)
    parser.add_argument("--quality", type=int, default=85)
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--zipf", type=float, default=1.1)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast configuration for CI (still verifies identity)",
    )
    args = parser.parse_args()
    if args.smoke:
        args.count, args.size, args.requests = 4, 128, 32

    result = run(
        args.count, args.size, args.quality, args.requests, args.zipf
    )
    result["smoke"] = args.smoke
    OUTPUT_DIR.mkdir(exist_ok=True)
    # A smoke run must not overwrite the committed full run.
    suffix = ".smoke.json" if args.smoke else ".json"
    path = OUTPUT_DIR / f"BENCH_serving{suffix}"
    path.write_text(json.dumps(result, indent=2))
    print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
