"""Pins ``GET /stats``: its full key tree and every counter.

One scripted sequence runs through :class:`P3Gateway` and through
:class:`AsyncGateway`: an upload, a cold view, a repeat view (variant
hit), a second size (secret-tier hit), a herd of coalesced waiters, a
view without a key and, on the async front end, shed views under
``degrade_mode="preview"`` and ``"reject"``.  The async front end gets
a fake-clock admission controller with one slot, so every admission
verdict is scripted.  Latencies are checked only as non-negative
numbers; everything else is pinned exactly.
"""

import asyncio
import dataclasses
import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.config import P3Config
from repro.jpeg.codec import encode_rgb
from repro.serve.admission import AdmissionController
from repro.serve.async_gateway import AsyncGateway
from repro.serve.engine import ServeRequest
from repro.serve.keys import key_digest
from repro.system.gateway import USER_HEADER, P3Gateway
from repro.system.http import HttpRequest, build_url
from repro.system.psp import FacebookPSP
from repro.system.storage import CloudStorage

LATENCY_KEYS = {"p50_ms", "p99_ms", "p999_ms", "degraded_p99_ms"}
CODEC_KEYS = ["available", "build_error", "artifact", "source_digest", "python"]
HERD = 4


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def get(path, params=None, user="alice"):
    return HttpRequest(
        method="GET",
        url=build_url("https://gw.example", path, params),
        headers={USER_HEADER: user},
    )


def upload(jpeg):
    return HttpRequest(
        method="POST",
        url=build_url("https://gw.example", "/photos/upload", {"album": "trip"}),
        headers={USER_HEADER: "alice"},
        body=jpeg,
    )


@contextmanager
def gated_downloads(engine, variant_key):
    """Hold the PSP's downloads until ``HERD - 1`` callers wait behind
    the leader of ``variant_key``'s flight (as the engine's coalescing
    test does)."""
    gate = threading.Event()
    psp = engine.psp
    real = psp.download

    def gated(*args, **kwargs):
        assert gate.wait(timeout=10)
        return real(*args, **kwargs)

    def open_when_queued():
        deadline = time.monotonic() + 10
        while engine._variant_flights.waiters(variant_key) < HERD - 1:
            if time.monotonic() > deadline:
                break
            time.sleep(0.002)
        gate.set()

    opener = threading.Thread(target=open_when_queued)
    psp.download = gated
    opener.start()
    try:
        yield
    finally:
        opener.join()
        del psp.download


def split_latencies(node, path=""):
    """The key tree with latency values replaced by ``"ms"``, after
    checking each is a non-negative number."""
    if isinstance(node, dict):
        return {
            key: split_latencies(value, f"{path}/{key}")
            for key, value in node.items()
        }
    if path.rsplit("/", 1)[-1] in LATENCY_KEYS:
        assert isinstance(node, (int, float)) and node >= 0, (path, node)
        return "ms"
    return node


def key_order(node):
    """Every dict's keys in order, nested."""
    if isinstance(node, dict):
        return [(key, key_order(value)) for key, value in node.items()]
    return None


def cache(hits, misses, evictions=0, expirations=0, entries=None):
    lookups = hits + misses
    report = {
        "hits": hits,
        "misses": misses,
        "evictions": evictions,
        "expirations": expirations,
        "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
    }
    if entries is not None:
        report["entries"] = entries
    return report


def assert_one_lookup_per_serve(payload):
    """Each engine serve counts one variant-tier hit or miss, whichever
    front end took it and however many times it probed the tier."""
    variant = payload["variant_cache"]
    assert variant["hits"] + variant["misses"] == payload["serving"]["requests"]


def checked(payload, digest):
    """Pin the codec subtree's keys and relabel the tenant partition."""
    codec = payload["codec"]
    assert list(codec) == ["native"]
    assert list(codec["native"]) == CODEC_KEYS
    assert codec["native"]["available"] is True
    payload = dict(payload, codec="native")
    payload["partitions"] = {
        tier: {
            ("trip-key" if label == digest else label): report
            for label, report in parts.items()
        }
        for tier, parts in payload["partitions"].items()
    }
    return split_latencies(payload)


@pytest.fixture()
def jpeg(scene_corpus):
    return encode_rgb(scene_corpus[0], quality=85)


def make_gateway():
    gateway = P3Gateway(
        FacebookPSP(), CloudStorage(), P3Config(threshold=15, quality=85)
    )
    gateway.add_user("alice")
    return gateway


def keyed_request(gateway, photo_id, resolution):
    return ServeRequest(
        photo_id=photo_id,
        album="trip",
        key=gateway.keyring_for("alice").key_for("trip"),
        requester="alice",
        resolution=resolution,
    )


def common_steps(handle, photo_id):
    """Cold view, repeat view, second size."""
    view = get(f"/photos/{photo_id}", {"album": "trip"})
    cold = handle(view)
    assert (cold.status, cold.headers["x-cache"]) == (200, "reconstructed")
    repeat = handle(view)
    assert (repeat.status, repeat.headers["x-cache"]) == (200, "variant-cache")
    second = handle(get(f"/photos/{photo_id}", {"album": "trip", "size": "130"}))
    assert (second.status, second.headers["x-cache"]) == (200, "reconstructed")


def view_without_key(handle, photo_id):
    public = handle(get(f"/photos/{photo_id}"))
    assert (public.status, public.headers["x-cache"]) == (200, "reconstructed")


class TestSyncGatewayStats:
    def test_scripted_sequence(self, jpeg):
        gateway = make_gateway()
        created = gateway.handle(upload(jpeg))
        assert created.status == 201
        photo_id = created.body.decode()
        common_steps(gateway.handle, photo_id)

        herd_view = get(f"/photos/{photo_id}", {"album": "trip", "size": "64"})
        responses = []
        herd_key = keyed_request(gateway, photo_id, 64).variant_key()
        with gated_downloads(gateway.engine, herd_key):
            threads = [
                threading.Thread(
                    target=lambda: responses.append(gateway.handle(herd_view))
                )
                for _ in range(HERD)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert sorted(r.headers["x-cache"] for r in responses) == [
            "coalesced"
        ] * (HERD - 1) + ["reconstructed"]
        view_without_key(gateway.handle, photo_id)

        response = gateway.handle(get("/stats"))
        assert response.status == 200
        payload = json.loads(response.body)
        digest = key_digest(gateway.keyring_for("alice").key_for("trip"))
        expected = {
            "serving": {
                "requests": 8,
                "reconstructions": 4,
                "coalesced": 3,
                "variant_hits": 1,
                "p50_ms": "ms",
                "p99_ms": "ms",
            },
            "codec": "native",
            "variant_cache": cache(1, 7),
            "secret_cache": cache(2, 1),
            "envelope_cache": cache(0, 1),
            "variant_entries": 4,
            "secret_entries": 1,
            "envelope_entries": 1,
            "partitions": {
                "variant_cache": {
                    "trip-key": cache(1, 6, entries=3),
                    "public": cache(0, 1, entries=1),
                },
                "secret_cache": {"trip-key": cache(2, 1, entries=1)},
                "envelope_cache": {"trip": cache(0, 1, entries=1)},
            },
        }
        observed = checked(payload, digest)
        assert observed == expected
        assert key_order(observed) == key_order(expected)
        assert_one_lookup_per_serve(payload)


class TestAsyncGatewayStats:
    def test_scripted_sequence(self, jpeg):
        gateway = make_gateway()
        clock = FakeClock()
        controller = AdmissionController(
            max_inflight=1, queue_deadline_s=0.02, clock=clock
        )
        front = AsyncGateway(gateway, controller=controller)
        try:
            self.run_script(front, controller, clock, jpeg)
        finally:
            front.close()

    def run_script(self, front, controller, clock, jpeg):
        gateway = front.gateway
        created = front.handle_sync(upload(jpeg))
        assert created.status == 201
        photo_id = created.body.decode()
        common_steps(front.handle_sync, photo_id)
        view_without_key(front.handle_sync, photo_id)

        # Take the one slot, so every further cold view has to queue.
        assert controller.try_admit("holder") == ("admitted", None)
        late = front.handle_sync(
            get(f"/photos/{photo_id}", {"album": "trip", "size": "96"})
        )
        assert (late.status, late.headers["x-p3-degraded"]) == (200, "deadline")
        clock.now += 1.0  # the abandoned ticket expires from the queue

        fillers = []
        for _ in range(controller.queue_capacity):
            verdict, ticket = controller.try_admit("filler")
            assert verdict == "queued"
            fillers.append(ticket)

        herd_view = get(f"/photos/{photo_id}", {"album": "trip", "size": "64"})
        preview_key = ServeRequest(
            photo_id=photo_id, requester="alice", resolution=64
        ).variant_key()

        async def herd():
            return await asyncio.gather(
                *[front.handle(herd_view) for _ in range(HERD)]
            )

        with gated_downloads(gateway.engine, preview_key):
            responses = asyncio.run(herd())
        assert [r.headers["x-p3-degraded"] for r in responses] == [
            "queue-full"
        ] * HERD
        assert sorted(r.headers["x-cache"] for r in responses) == [
            "coalesced"
        ] * (HERD - 1) + ["reconstructed"]

        front.config = dataclasses.replace(front.config, degrade_mode="reject")
        rejected = front.handle_sync(herd_view)
        assert rejected.status == 503

        for ticket in fillers:
            assert controller.abandon(ticket)
        assert controller.release() is None

        response = front.handle_sync(get("/stats"))
        assert response.status == 200
        payload = json.loads(response.body)
        digest = key_digest(gateway.keyring_for("alice").key_for("trip"))
        expected = {
            "serving": {
                "requests": 9,
                "reconstructions": 5,
                "coalesced": 3,
                "variant_hits": 1,
                "p50_ms": "ms",
                "p99_ms": "ms",
            },
            "codec": "native",
            "variant_cache": cache(1, 8),
            "secret_cache": cache(1, 1),
            "envelope_cache": cache(0, 1),
            "variant_entries": 5,
            "secret_entries": 1,
            "envelope_entries": 1,
            "partitions": {
                "variant_cache": {
                    "trip-key": cache(1, 2, entries=2),
                    "public": cache(0, 6, entries=3),
                },
                "secret_cache": {"trip-key": cache(1, 1, entries=1)},
                "envelope_cache": {"trip": cache(0, 1, entries=1)},
            },
            "frontend": {
                "admitted": 5,
                "loop_hits": 1,
                "shed": {"deadline": 1, "queue-full": HERD + 1},
                "shed_total": HERD + 2,
                "degraded": HERD + 1,
                "rejected": 1,
                "queue_depth_max": 1,
                "p50_ms": "ms",
                "p99_ms": "ms",
                "p999_ms": "ms",
                "degraded_p99_ms": "ms",
            },
            "admission": {
                "max_inflight": 1,
                "inflight": 0,
                "queue_depth": 0,
                "queue_capacity": 4,
                "queue_deadline_ms": 20.0,
                "tenant_rps": 0.0,
                "tenants_tracked": 0,
            },
        }
        observed = checked(payload, digest)
        assert observed == expected
        assert key_order(observed) == key_order(expected)
        assert_one_lookup_per_serve(payload)
