"""Async serving-front-end benchmark: trace replay under overload.

Four scenarios through real :class:`~repro.serve.async_gateway.
AsyncGateway` round trips, one JSON artifact
(``BENCH_async_serving.json``):

1. **Warm zipfian throughput** — the same warm trace replayed
   closed-loop through the sync gateway and open-loop through the
   async one, both paying an identical simulated client link RTT.
   The sync front end serializes round trips; the async one overlaps
   them on the event loop.  Acceptance: >= 5x sustained served RPS.
2. **Flash crowd** — a viral-photo spike offered well above the
   reconstruction capacity (tiny in-flight cap, slow provider,
   resolution churn defeating the variant cache).  Accepts only if
   the tail stays bounded (p99 <= queue deadline + serve time +
   slack), the queue respects its capacity, some requests are shed,
   and *not all* of them are — graceful degradation, not collapse.
3. **Thundering herd** — N distinct viewers hit one cold photo at one
   instant.  Coalescing must collapse the keyed serves to one
   reconstruction (plus at most one public-part decode for the shed
   overflow) and the replay must finish in a fraction of the
   serialized time.
4. **Diurnal steady state** — a compressed day curve at rates the
   deployment can absorb: everything is served, nothing is rejected.

Traces draw tenants from a million-user population; the distinct
tenants actually drawn are registered with the gateway (a PSP grants
access per photo at upload, so every drawn viewer is in each photo's
viewer set and shares the album key).

**Byte identity hard-fails the run**: every admitted 2xx is digested
and compared against a reference engine's keyed reconstruction for
that exact (photo, resolution), and every degraded preview against
the public-part-only reference — one mismatch is a nonzero exit.
So is a 100% shed rate in an overload scenario.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_async_serving.py
    PYTHONPATH=src python benchmarks/bench_async_serving.py --smoke
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import sys
import time

from repro.api.executors import run_async
from repro.api.registry import DEFAULT_REGISTRY
from repro.core.config import P3Config
from repro.datasets import iter_corpus_jpegs
from repro.serve.async_gateway import AsyncGateway
from repro.serve.engine import ServeRequest, ServingEngine
from repro.serve.replay import ReplayReport, replay_async, replay_sync
from repro.serve.trace import (
    TraceEvent,
    diurnal_trace,
    flash_crowd_trace,
    thundering_herd_trace,
    zipf_trace,
)
from repro.system.client import PhotoSharingClient
from repro.system.gateway import USER_HEADER, P3Gateway
from repro.system.http import HttpRequest, build_url

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

ALBUM = "bench"
POPULATION = 1_000_000
#: Simulated client link RTT for the throughput comparison.
CLIENT_RTT_S = 0.02
#: Simulated provider RTT for the overload scenarios: every cold
#: reconstruction pays one slow download, so capacity is knowable.
SERVE_RTT_S = 0.05


class SlowDownloadPSP:
    """A provider whose downloads sit behind a fixed RTT.

    Uploads and access checks stay fast — only the serving path's
    fetch is network-bound, which is what makes reconstruction the
    scarce resource the admission layer has to protect.
    """

    def __init__(self, inner, rtt_s: float) -> None:
        self.inner = inner
        self.rtt_s = rtt_s

    def download(self, photo_id, requester, resolution=None, crop_box=None):
        time.sleep(self.rtt_s)
        return self.inner.download(
            photo_id, requester, resolution=resolution, crop_box=crop_box
        )

    def __getattr__(self, name):
        return getattr(self.inner, name)


class Deployment:
    """One gateway + async front end + reference digests, per scenario."""

    def __init__(
        self,
        corpus: list[bytes],
        tenants: list[str],
        quality: int,
        *,
        resolutions: tuple[int | None, ...] = (None,),
        serve_rtt_s: float = 0.0,
        **config_overrides,
    ) -> None:
        self.config = P3Config(quality=quality, **config_overrides)
        self.psp = DEFAULT_REGISTRY.create_psp("facebook")
        self.storage = DEFAULT_REGISTRY.create_storage("dropbox")
        self.gateway = P3Gateway(self.psp, self.storage, self.config)
        self.resolutions = resolutions
        owner = PhotoSharingClient.for_gateway(self.gateway, "owner")
        receipts = [
            owner.upload_photo(jpeg, ALBUM, viewers=set(tenants))
            for jpeg in corpus
        ]
        self.photo_ids = [receipt.photo_id for receipt in receipts]
        for name in tenants:
            self.gateway.add_user(name)
        self.gateway.share_album("owner", ALBUM, *tenants)
        self.digests = self._reference_digests(quality)
        if serve_rtt_s > 0:
            # After the references are computed, so only replayed
            # traffic pays the simulated provider RTT.
            self.gateway.engine.psp = SlowDownloadPSP(self.psp, serve_rtt_s)
        self.front = AsyncGateway(self.gateway)

    def _reference_digests(self, quality: int) -> dict:
        """SHA-256 of the reference pixels per (photo, resolution, tier).

        A separate cache-cold engine over the same backends: ``full``
        is the keyed reconstruction, ``public`` the public-part-only
        pixels a shed viewer's degraded preview must match.
        """
        reference = ServingEngine(
            self.psp, self.storage, P3Config(quality=quality)
        )
        key = self.gateway.keyring_for("owner").key_for(ALBUM)
        digests: dict[tuple[str, int | None, str], str] = {}
        for photo_id in self.photo_ids:
            for resolution in self.resolutions:
                for tier, album, tier_key in (
                    ("full", ALBUM, key),
                    ("public", None, None),
                ):
                    pixels = reference.serve(
                        ServeRequest(
                            photo_id=photo_id,
                            album=album,
                            key=tier_key,
                            requester="owner",
                            resolution=resolution,
                        )
                    ).pixels
                    digests[(photo_id, resolution, tier)] = hashlib.sha256(
                        pixels.tobytes()
                    ).hexdigest()
        return digests

    def resolution_for(self, event: TraceEvent) -> int | None:
        """Deterministic per-event resolution churn (recoverable at
        verification time from the event alone)."""
        index = (event.photo_rank + int(event.at_s * 997)) % len(
            self.resolutions
        )
        return self.resolutions[index]

    def make_request(self, event: TraceEvent) -> HttpRequest:
        photo_id = self.photo_ids[event.photo_rank % len(self.photo_ids)]
        params = {"album": ALBUM}
        resolution = self.resolution_for(event)
        if resolution is not None:
            params["size"] = str(resolution)
        return HttpRequest(
            method="GET",
            url=build_url(
                "http://gateway.local", f"/photos/{photo_id}", params
            ),
            headers={USER_HEADER: event.tenant},
        )

    def verify(self, report: ReplayReport) -> int:
        """Digest every 2xx against its reference tier; count mismatches."""
        mismatches = 0
        for outcome in report.outcomes:
            if not 200 <= outcome.status < 300:
                continue
            photo_id = self.photo_ids[
                outcome.event.photo_rank % len(self.photo_ids)
            ]
            resolution = self.resolution_for(outcome.event)
            tier = "public" if outcome.degraded else "full"
            if outcome.body_sha != self.digests[(photo_id, resolution, tier)]:
                mismatches += 1
                print(
                    f"BYTE MISMATCH [{report.scenario}/{report.mode}] "
                    f"{photo_id} res={resolution} tier={tier}",
                    file=sys.stderr,
                )
        return mismatches

    def close(self) -> None:
        self.front.close()


def distinct_tenants(events: list[TraceEvent]) -> list[str]:
    return sorted({event.tenant for event in events})


def check(condition: bool, message: str) -> int:
    """Count an acceptance failure (and say so) when a check fails."""
    if condition:
        return 0
    print(f"CHECK FAILED: {message}", file=sys.stderr)
    return 1


def bench_throughput(
    corpus: list[bytes], quality: int, requests: int
) -> tuple[dict, int]:
    """Warm zipfian trace: closed-loop sync vs open-loop async."""
    pool = [f"user-{i}" for i in range(32)]
    ranks = zipf_trace(len(corpus), requests, s=1.1, seed=7)
    events = [
        TraceEvent(at_s=0.0, tenant=pool[i % len(pool)], photo_rank=rank)
        for i, rank in enumerate(ranks)
    ]
    deployment = Deployment(corpus, pool, quality)
    try:
        # Warm every variant once through the sync path so both
        # replays measure steady-state serving, not cold misses.
        for rank in range(len(deployment.photo_ids)):
            warm = deployment.gateway.handle(
                deployment.make_request(
                    TraceEvent(at_s=0.0, tenant=pool[0], photo_rank=rank)
                )
            )
            if not warm.ok:
                raise SystemExit(
                    f"warmup returned {warm.status}: {warm.body!r}"
                )
        sync_report = replay_sync(
            deployment.gateway.handle,
            events,
            deployment.make_request,
            client_rtt_s=CLIENT_RTT_S,
        )
        sync_report.scenario = "warm_zipfian"
        async_report = run_async(
            replay_async(
                deployment.front.handle,
                events,
                deployment.make_request,
                client_rtt_s=CLIENT_RTT_S,
            )
        )
        async_report.scenario = "warm_zipfian"
        frontend = deployment.front.stats_payload()["frontend"]
        failures = deployment.verify(sync_report)
        failures += deployment.verify(async_report)
    finally:
        deployment.close()
    failures += check(
        len(sync_report.errors) == 0 and len(async_report.errors) == 0,
        "warm zipfian replay hit error statuses",
    )
    failures += check(
        len(async_report.served) == len(events),
        "async replay shed warm cache hits",
    )
    speedup = (
        async_report.served_rps / sync_report.served_rps
        if sync_report.served_rps
        else 0.0
    )
    print(
        f"throughput: {len(events)} warm zipfian requests, client RTT "
        f"{CLIENT_RTT_S * 1000:.0f} ms -> sync {sync_report.served_rps:.0f} "
        f"rps, async {async_report.served_rps:.0f} rps "
        f"({speedup:.1f}x; target >= 5x)"
    )
    return (
        {
            "client_rtt_ms": CLIENT_RTT_S * 1000,
            "sync": sync_report.summary(),
            "async": async_report.summary(),
            "loop_hits": frontend["loop_hits"],
            "speedup": round(speedup, 2),
            "meets_5x_target": speedup >= 5.0,
        },
        failures,
    )


def bench_flash_crowd(
    corpus: list[bytes], quality: int, smoke: bool
) -> tuple[dict, int]:
    """A viral spike offered ~3x over reconstruction capacity."""
    duration_s = 3.5 if smoke else 6.0
    spike = dict(
        spike_rps=120.0 if smoke else 140.0,
        spike_start_s=1.0,
        spike_duration_s=1.5 if smoke else 2.5,
    )
    events = flash_crowd_trace(
        tenants=POPULATION,
        photos=len(corpus),
        duration_s=duration_s,
        base_rps=20.0,
        hot_fraction=0.8,
        seed=9,
        **spike,
    )
    resolutions = (None, 160, 128, 96)
    queue_deadline_ms = 100.0
    deployment = Deployment(
        corpus,
        distinct_tenants(events),
        quality,
        resolutions=resolutions,
        serve_rtt_s=SERVE_RTT_S,
        # 2 slots x ~55 ms/reconstruction ~= 36 rps of cold capacity;
        # a tiny variant cache + resolution churn keeps serves cold.
        max_inflight=2,
        queue_deadline_ms=queue_deadline_ms,
        variant_cache=4,
    )
    try:
        report = run_async(
            replay_async(
                deployment.front.handle,
                events,
                deployment.make_request,
                client_rtt_s=0.01,
            )
        )
        report.scenario = "flash_crowd"
        frontend = deployment.front.stats_payload()["frontend"]
        admission = deployment.front.controller.snapshot()
        failures = deployment.verify(report)
    finally:
        deployment.close()
    served = len(report.served)
    degraded = len(report.degraded)
    failures += check(len(report.errors) == 0, "flash crowd hit error statuses")
    failures += check(
        served + degraded + len(report.rejected) == report.offered,
        "flash crowd outcomes do not partition",
    )
    failures += check(served > 0, "flash crowd shed 100% of requests")
    failures += check(degraded > 0, "flash crowd never shed — not overloaded")
    failures += check(
        frontend["queue_depth_max"] <= admission["queue_capacity"],
        "admission queue overflowed its capacity",
    )
    # Bounded tail: an admitted or degraded answer arrives within the
    # queue deadline plus (coalesced) reconstruction time plus client
    # link and scheduling slack — never unbounded queueing collapse.
    serve_ms = [o.serve_ms for o in report.outcomes if o.serve_ms is not None]
    max_serve_ms = max(serve_ms) if serve_ms else 0.0
    all_2xx_ms = [
        o.latency_s * 1000
        for o in report.outcomes
        if 200 <= o.status < 300
    ]
    p99_ms = (
        sorted(all_2xx_ms)[int(0.99 * (len(all_2xx_ms) - 1))]
        if all_2xx_ms
        else 0.0
    )
    p99_bound_ms = queue_deadline_ms + 2 * max_serve_ms + 750.0
    failures += check(
        p99_ms <= p99_bound_ms,
        f"flash crowd p99 {p99_ms:.0f} ms exceeds bound {p99_bound_ms:.0f} ms",
    )
    print(
        f"flash crowd: offered {report.offered_rps:.0f} rps "
        f"({report.offered} requests), served {served} full + "
        f"{degraded} degraded previews, {len(report.rejected)} x 503; "
        f"p99 {p99_ms:.0f} ms (bound {p99_bound_ms:.0f} ms), queue max "
        f"{frontend['queue_depth_max']}/{admission['queue_capacity']}"
    )
    return (
        {
            "replay": report.summary(),
            "p99_all_2xx_ms": round(p99_ms, 1),
            "p99_bound_ms": round(p99_bound_ms, 1),
            "max_serve_ms": round(max_serve_ms, 1),
            "frontend": frontend,
            "admission": admission,
        },
        failures,
    )


def bench_thundering_herd(
    corpus: list[bytes], quality: int, herd_size: int
) -> tuple[dict, int]:
    """N viewers, one cold photo, one instant: one reconstruction or die."""
    events = thundering_herd_trace(
        tenants=POPULATION, herd_size=herd_size, rank=0, seed=2
    )
    deployment = Deployment(
        corpus,
        distinct_tenants(events),
        quality,
        serve_rtt_s=SERVE_RTT_S,
        max_inflight=6,
        queue_deadline_ms=150.0,
    )
    try:
        engine = deployment.gateway.engine
        reconstructions_before = engine.stats.count("reconstructions")
        report = run_async(
            replay_async(
                deployment.front.handle, events, deployment.make_request
            )
        )
        report.scenario = "thundering_herd"
        reconstructions = (
            engine.stats.count("reconstructions") - reconstructions_before
        )
        coalesced = engine.stats.count("coalesced")
        failures = deployment.verify(report)
    finally:
        deployment.close()
    serialized_s = herd_size * SERVE_RTT_S
    failures += check(len(report.errors) == 0, "herd hit error statuses")
    failures += check(len(report.served) > 0, "herd shed 100% of requests")
    # One keyed reconstruction for the whole herd, plus at most one
    # public-part decode covering every shed viewer's preview.
    failures += check(
        1 <= reconstructions <= 2,
        f"herd of {herd_size} cost {reconstructions} reconstructions",
    )
    failures += check(
        report.wall_s < serialized_s / 4,
        f"herd wall {report.wall_s:.2f}s not << serialized {serialized_s:.1f}s",
    )
    print(
        f"thundering herd: {herd_size} viewers -> {reconstructions} "
        f"reconstruction(s), {coalesced} coalesced, {len(report.served)} "
        f"full + {len(report.degraded)} degraded in {report.wall_s:.2f}s "
        f"(serialized would be {serialized_s:.1f}s)"
    )
    return (
        {
            "herd_size": herd_size,
            "reconstructions": reconstructions,
            "coalesced_serves": coalesced,
            "serialized_s": round(serialized_s, 2),
            "replay": report.summary(),
        },
        failures,
    )


def bench_diurnal(
    corpus: list[bytes], quality: int, smoke: bool
) -> tuple[dict, int]:
    """A compressed day curve at absorbable rates: zero rejections."""
    events = diurnal_trace(
        tenants=POPULATION,
        photos=len(corpus),
        duration_s=2.5 if smoke else 4.0,
        peak_rps=30.0 if smoke else 50.0,
        seed=11,
    )
    deployment = Deployment(
        corpus,
        distinct_tenants(events),
        quality,
        resolutions=(None, 128),
        serve_rtt_s=0.01,
    )
    try:
        report = run_async(
            replay_async(
                deployment.front.handle,
                events,
                deployment.make_request,
                client_rtt_s=0.01,
            )
        )
        report.scenario = "diurnal"
        frontend = deployment.front.stats_payload()["frontend"]
        failures = deployment.verify(report)
    finally:
        deployment.close()
    failures += check(len(report.errors) == 0, "diurnal hit error statuses")
    failures += check(
        len(report.rejected) == 0, "diurnal steady state returned 503s"
    )
    print(
        f"diurnal: offered {report.offered_rps:.0f} rps over "
        f"{report.wall_s:.1f}s, served {len(report.served)} full + "
        f"{len(report.degraded)} degraded, p99 "
        f"{report.latency_ms(99):.0f} ms"
    )
    return (
        {"replay": report.summary(), "frontend": frontend},
        failures,
    )


def run(count: int, size: int, quality: int, requests: int, smoke: bool):
    corpus = list(iter_corpus_jpegs("usc", count, size=size, quality=quality))
    print(
        f"corpus: {count} x {size}px q{quality} "
        f"({sum(len(j) for j in corpus)} JPEG bytes), "
        f"population {POPULATION} tenants, cpu_count={os.cpu_count()}"
    )
    failures = 0
    throughput, section_failures = bench_throughput(corpus, quality, requests)
    failures += section_failures
    flash, section_failures = bench_flash_crowd(corpus, quality, smoke)
    failures += section_failures
    herd, section_failures = bench_thundering_herd(
        corpus, quality, herd_size=48 if smoke else 80
    )
    failures += section_failures
    diurnal, section_failures = bench_diurnal(corpus, quality, smoke)
    failures += section_failures
    if failures:
        raise SystemExit(
            f"{failures} byte mismatch(es)/acceptance failure(s) — the "
            "async serving front end is broken"
        )
    print("all scenarios byte-identical to the reference engine: OK")
    return {
        "benchmark": "async_serving",
        "description": (
            "Asyncio front end + admission control under replayed "
            "traces: warm zipfian sync-vs-async throughput, flash-crowd "
            "overload with graceful degradation, thundering-herd "
            "coalescing, diurnal steady state; every admitted response "
            "verified byte-identical to a reference reconstruction and "
            "every degraded preview to the public-part-only pixels"
        ),
        "cpu_count": os.cpu_count(),
        "corpus": {
            "kind": "usc", "count": count, "size": size, "quality": quality
        },
        "throughput": throughput,
        "flash_crowd": flash,
        "thundering_herd": herd,
        "diurnal": diurnal,
        "byte_identical": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=8)
    parser.add_argument("--size", type=int, default=192)
    parser.add_argument("--quality", type=int, default=85)
    parser.add_argument("--requests", type=int, default=300)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast configuration for CI (still verifies identity)",
    )
    args = parser.parse_args()
    if args.smoke:
        args.count, args.size, args.requests = 4, 128, 120

    result = run(
        args.count, args.size, args.quality, args.requests, args.smoke
    )
    result["smoke"] = args.smoke
    OUTPUT_DIR.mkdir(exist_ok=True)
    # A smoke run must not overwrite the committed full run.
    suffix = ".smoke.json" if args.smoke else ".json"
    path = OUTPUT_DIR / f"BENCH_async_serving{suffix}"
    path.write_text(json.dumps(result, indent=2))
    print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
