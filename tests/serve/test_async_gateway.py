"""Tests for the asyncio front end: loop-hit fast path, offloaded cold
serves, admission-controlled overload behaviour and graceful degrade."""

import asyncio
import json
import time

import pytest

from repro.core.config import P3Config
from repro.jpeg.codec import encode_rgb
from repro.serve.admission import AdmissionController
from repro.serve.async_gateway import (
    DEGRADED_HEADER,
    OFFLOAD_HEADROOM,
    AsyncGateway,
)
from repro.serve.engine import ServeRequest, ServingEngine
from repro.system.client import PhotoSharingClient
from repro.system.gateway import (
    USER_HEADER,
    P3Gateway,
    pixels_from_response,
)
from repro.system.http import HttpRequest, build_url
from repro.system.psp import FacebookPSP
from repro.system.storage import CloudStorage


@pytest.fixture()
def jpeg(scene_corpus):
    return encode_rgb(scene_corpus[0], quality=85)


def make_gateway(**config_overrides):
    config = P3Config(threshold=15, quality=85, **config_overrides)
    return P3Gateway(FacebookPSP(), CloudStorage(), config)


def get_request(user, path, params=None):
    return HttpRequest(
        method="GET",
        url=build_url("https://gw.example", path, params),
        headers={USER_HEADER: user} if user else {},
    )


class SlowPSP:
    """Delegates to a real PSP, adding a fixed delay to download()."""

    def __init__(self, inner, delay_s):
        self._inner = inner
        self._delay_s = delay_s

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def download(self, *args, **kwargs):
        time.sleep(self._delay_s)
        return self._inner.download(*args, **kwargs)


class TestServeCached:
    def test_miss_then_hit(self, gateway_and_photo):
        gateway, photo_id = gateway_and_photo
        request = ServeRequest(
            photo_id=photo_id, requester="alice", resolution=130
        )
        assert gateway.engine.serve_cached(request) is None
        full = gateway.engine.serve(request)
        hit = gateway.engine.serve_cached(request)
        assert hit is not None
        assert hit.variant_hit
        assert hit.pixels.tobytes() == full.pixels.tobytes()

    def test_hit_counts_as_a_request(self, gateway_and_photo):
        gateway, photo_id = gateway_and_photo
        request = ServeRequest(
            photo_id=photo_id, requester="alice", resolution=130
        )
        gateway.engine.serve(request)
        before = gateway.engine.stats.count("requests")
        gateway.engine.serve_cached(request)
        assert gateway.engine.stats.count("requests") == before + 1
        assert gateway.engine.stats.count("variant_hits") == 1

    def test_no_access_hook_means_no_fast_path(self, gateway_and_photo):
        """A backend enforcing access only inside download() owes the
        provider a round trip on every serve — even a warm variant must
        take the offload path."""
        gateway, photo_id = gateway_and_photo

        class NoHookPSP:
            name = "nohook"

            def __init__(self, inner):
                self._download = inner.download

            def download(self, *args, **kwargs):
                return self._download(*args, **kwargs)

        engine = ServingEngine(
            NoHookPSP(gateway.psp), gateway.storage
        )
        request = ServeRequest(
            photo_id=photo_id, requester="alice", resolution=130
        )
        engine.serve(request)  # warm the variant cache
        assert engine.serve_cached(request) is None

    def test_denied_viewer_is_refused_on_the_fast_path(
        self, gateway_and_photo
    ):
        from repro.system.psp import AccessDeniedError

        gateway, photo_id = gateway_and_photo
        request = ServeRequest(
            photo_id=photo_id, requester="alice", resolution=130
        )
        gateway.engine.serve(request)
        gateway.add_user("mallory")
        with pytest.raises(AccessDeniedError):
            gateway.engine.serve_cached(
                ServeRequest(photo_id=photo_id, requester="mallory")
            )


@pytest.fixture()
def gateway_and_photo(jpeg):
    gateway = make_gateway()
    alice = PhotoSharingClient.for_gateway(gateway, "alice")
    receipt = alice.upload_photo(jpeg, "trip")
    yield gateway, receipt.photo_id
    gateway.close()


@pytest.fixture()
def async_gateway(gateway_and_photo):
    gateway, photo_id = gateway_and_photo
    front = AsyncGateway(gateway)
    yield front, photo_id
    front.close()


class TestAsyncViews:
    def test_round_trip_matches_sync(self, async_gateway):
        front, photo_id = async_gateway
        request = get_request(
            "alice", f"/photos/{photo_id}", {"album": "trip"}
        )
        via_async = front.handle_sync(request)
        via_sync = front.gateway.handle(request)
        assert via_async.status == 200
        assert via_async.body == via_sync.body
        assert (
            via_async.headers["x-image-shape"]
            == via_sync.headers["x-image-shape"]
        )

    def test_warm_hit_is_answered_on_the_loop(self, async_gateway):
        front, photo_id = async_gateway
        request = get_request(
            "alice", f"/photos/{photo_id}", {"album": "trip"}
        )
        cold = front.handle_sync(request)
        warm = front.handle_sync(request)
        assert cold.body == warm.body
        assert warm.headers["x-cache"] == "variant-cache"
        snap = front.stats_payload()["frontend"]
        assert snap["admitted"] == 2
        assert snap["loop_hits"] == 1

    def test_herd_coalesces_across_coroutines(self, jpeg):
        """Many concurrent viewers of one cold photo: one
        reconstruction, identical bytes for everyone."""
        gateway = make_gateway()
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        viewers = {f"viewer{i}" for i in range(6)}
        receipt = alice.upload_photo(jpeg, "trip", viewers=viewers)
        for name in viewers:
            gateway.add_user(name)
        front = AsyncGateway(gateway)
        try:

            async def herd():
                return await asyncio.gather(
                    *[
                        front.handle(
                            get_request(
                                name, f"/photos/{receipt.photo_id}"
                            )
                        )
                        for name in sorted(viewers)
                    ]
                )

            responses = asyncio.run(herd())
        finally:
            front.close()
        assert [r.status for r in responses] == [200] * 6
        assert len({r.body for r in responses}) == 1
        assert gateway.engine.stats.count("reconstructions") == 1

    def test_error_statuses_on_the_loop(self, async_gateway):
        front, photo_id = async_gateway
        assert front.handle_sync(get_request(None, "/photos/x")).status == 401
        assert (
            front.handle_sync(get_request("ghost", "/photos/x")).status
            == 401
        )
        assert (
            front.handle_sync(
                get_request("alice", "/photos/missing")
            ).status
            == 404
        )
        assert (
            front.handle_sync(
                get_request(
                    "alice", f"/photos/{photo_id}", {"crop": "1,2"}
                )
            ).status
            == 400
        )
        assert front.handle_sync(get_request("alice", "/albums")).status == 404

    def test_failed_admitted_serve_frees_its_slot(
        self, async_gateway, monkeypatch
    ):
        """A cold serve that raises on the offload pool still hands its
        slot back, maps to a 502, and records no admitted latency."""
        front, photo_id = async_gateway

        def dead_download(*args, **kwargs):
            raise OSError("provider down")

        monkeypatch.setattr(front.gateway.psp, "download", dead_download)
        response = front.handle_sync(
            get_request("alice", f"/photos/{photo_id}", {"album": "trip"})
        )
        assert response.status == 502
        assert front.controller.inflight == 0
        assert front.stats_payload()["frontend"]["admitted"] == 0

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_non_positive_size_is_400_before_any_work(
        self, async_gateway, monkeypatch, size
    ):
        front, photo_id = async_gateway
        downloads = []
        real_download = front.gateway.psp.download

        def counting_download(*args, **kwargs):
            downloads.append(args)
            return real_download(*args, **kwargs)

        monkeypatch.setattr(front.gateway.psp, "download", counting_download)
        cached = len(front.engine.variant_cache)
        response = front.handle_sync(
            get_request(
                "alice", f"/photos/{photo_id}", {"album": "trip", "size": size}
            )
        )
        assert response.status == 400
        assert b"resolution" in response.body
        assert downloads == []
        assert len(front.engine.variant_cache) == cached


class TestOverload:
    def overloaded_front(self, jpeg, photos=4, **config_overrides):
        """A gateway built to shed: one slot, short deadline, slow PSP."""
        config_overrides.setdefault("max_inflight", 1)
        config_overrides.setdefault("queue_deadline_ms", 40.0)
        gateway = make_gateway(**config_overrides)
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        photo_ids = [
            alice.upload_photo(jpeg, "trip").photo_id
            for _ in range(photos)
        ]
        # Slow down serves *after* the uploads went through.
        gateway.engine.psp = SlowPSP(gateway.engine.psp, 0.15)
        return gateway, photo_ids

    def test_deadline_shed_degrades_to_preview(self, jpeg):
        gateway, photo_ids = self.overloaded_front(jpeg)
        front = AsyncGateway(gateway)
        try:

            async def storm():
                return await asyncio.gather(
                    *[
                        front.handle(
                            get_request(
                                "alice", f"/photos/{pid}", {"album": "trip"}
                            )
                        )
                        for pid in photo_ids
                    ]
                )

            responses = asyncio.run(storm())
            # No 503s: every viewer got pixels, shed ones got previews.
            assert [r.status for r in responses] == [200] * len(photo_ids)
            degraded = [
                r for r in responses if DEGRADED_HEADER in r.headers
            ]
            assert degraded  # one slot + 40ms deadline + 150ms serves
            assert any(
                r.headers.get(DEGRADED_HEADER) == "deadline"
                for r in degraded
            )
            snap = front.stats_payload()["frontend"]
            assert snap["degraded"] == len(degraded)
            assert snap["shed"].get("deadline", 0) >= 1
            # The preview is byte-identical to the public-only serve.
            by_photo = {
                r.headers["x-photo-id"]: r for r in degraded
            }
            for pid, response in by_photo.items():
                reference = gateway.engine.serve(
                    ServeRequest(photo_id=pid, requester="alice")
                )
                assert (
                    pixels_from_response(response).tobytes()
                    == reference.pixels.tobytes()
                )
        finally:
            front.close()

    def test_reject_mode_sheds_with_503(self, jpeg):
        gateway, photo_ids = self.overloaded_front(
            jpeg, degrade_mode="reject"
        )
        front = AsyncGateway(gateway)
        try:

            async def storm():
                return await asyncio.gather(
                    *[
                        front.handle(
                            get_request(
                                "alice", f"/photos/{pid}", {"album": "trip"}
                            )
                        )
                        for pid in photo_ids
                    ]
                )

            responses = asyncio.run(storm())
        finally:
            front.close()
        statuses = sorted(r.status for r in responses)
        assert statuses[0] == 200  # the admitted serve
        assert 503 in statuses
        rejected = [r for r in responses if r.status == 503]
        assert all(b"overloaded" in r.body for r in rejected)
        assert front.stats_payload()["frontend"]["rejected"] == len(rejected)

    def test_rate_limited_tenant_degrades(self, jpeg):
        gateway, photo_ids = self.overloaded_front(
            jpeg, max_inflight=8, tenant_rps=0.05
        )
        # burst = max(1, rps * 2s) = 1 whole request, and refill at
        # 0.05/s means wall-clock time in the test can't restore it:
        # the second cold view deterministically sheds.
        front = AsyncGateway(gateway)
        try:
            first = front.handle_sync(
                get_request(
                    "alice", f"/photos/{photo_ids[0]}", {"album": "trip"}
                )
            )
            second = front.handle_sync(
                get_request(
                    "alice", f"/photos/{photo_ids[1]}", {"album": "trip"}
                )
            )
            assert first.status == 200
            assert DEGRADED_HEADER not in first.headers
            assert second.status == 200
            assert second.headers[DEGRADED_HEADER] == "rate"
            assert front.stats_payload()["frontend"]["shed"] == {"rate": 1}
        finally:
            front.close()

    def test_rate_limit_spares_cache_hits(self, jpeg):
        """Loop hits do not spend the tenant's budget — the bucket
        gates reconstruction work, not microsecond cache reads."""
        gateway, photo_ids = self.overloaded_front(
            jpeg, max_inflight=8, tenant_rps=0.05
        )
        front = AsyncGateway(gateway)
        try:
            request = get_request(
                "alice", f"/photos/{photo_ids[0]}", {"album": "trip"}
            )
            assert front.handle_sync(request).status == 200
            for _ in range(5):
                warm = front.handle_sync(request)
                assert warm.status == 200
                assert DEGRADED_HEADER not in warm.headers
            assert front.stats_payload()["frontend"]["loop_hits"] == 5
        finally:
            front.close()

    def test_queue_depth_stays_bounded(self, jpeg):
        gateway, photo_ids = self.overloaded_front(jpeg, photos=2)
        front = AsyncGateway(gateway)
        try:

            async def storm():
                return await asyncio.gather(
                    *[
                        front.handle(
                            get_request(
                                "alice",
                                f"/photos/{photo_ids[i % 2]}",
                                {"album": "trip"},
                            )
                        )
                        for i in range(24)
                    ]
                )

            asyncio.run(storm())
            snap = front.stats_payload()["frontend"]
            capacity = front.controller.queue_capacity
            assert snap["queue_depth_max"] <= capacity
            admission = front.controller.snapshot()
            assert admission["queue_depth"] == 0  # drained afterwards
            assert admission["inflight"] == 0  # every slot released
        finally:
            front.close()


class TestAsyncUploads:
    def test_upload_roundtrip(self, jpeg):
        gateway = make_gateway()
        gateway.add_user("alice")
        front = AsyncGateway(gateway)
        try:
            response = front.handle_sync(
                HttpRequest(
                    method="POST",
                    url=build_url(
                        "https://gw.example",
                        "/photos/upload",
                        {"album": "trip"},
                    ),
                    headers={USER_HEADER: "alice"},
                    body=jpeg,
                )
            )
            assert response.status == 201
            photo_id = response.body.decode()
            view = front.gateway.handle(
                get_request("alice", f"/photos/{photo_id}", {"album": "trip"})
            )
            assert view.status == 200
        finally:
            front.close()

    def test_shed_upload_is_503_even_in_preview_mode(self, jpeg):
        gateway = make_gateway(tenant_rps=0.05, degrade_mode="preview")
        gateway.add_user("alice")
        front = AsyncGateway(gateway)
        try:
            upload = HttpRequest(
                method="POST",
                url=build_url(
                    "https://gw.example", "/photos/upload", {"album": "trip"}
                ),
                headers={USER_HEADER: "alice"},
                body=jpeg,
            )
            assert front.handle_sync(upload).status == 201
            shed = front.handle_sync(upload)
            assert shed.status == 503  # no preview exists for an upload
            assert b"rate" in shed.body
        finally:
            front.close()

    def test_unauthenticated_upload_costs_no_budget(self, jpeg):
        gateway = make_gateway(tenant_rps=0.05)
        gateway.add_user("alice")
        front = AsyncGateway(gateway)
        try:
            nameless = HttpRequest(
                method="POST",
                url=build_url(
                    "https://gw.example", "/photos/upload", {"album": "a"}
                ),
                body=jpeg,
            )
            assert front.handle_sync(nameless).status == 401
            assert len(front.controller.limiter) == 0
        finally:
            front.close()


class TestStats:
    def test_stats_route_reports_frontend_and_admission(
        self, async_gateway
    ):
        front, photo_id = async_gateway
        front.handle_sync(
            get_request("alice", f"/photos/{photo_id}", {"album": "trip"})
        )
        response = front.handle_sync(get_request("alice", "/stats"))
        assert response.status == 200
        stats = json.loads(response.body)
        assert stats["serving"]["requests"] == 1
        assert stats["frontend"]["admitted"] == 1
        assert "p999_ms" in stats["frontend"]
        assert stats["admission"]["max_inflight"] == 64
        assert stats["admission"]["inflight"] == 0

    def test_custom_controller_is_honored(self, gateway_and_photo):
        gateway, _ = gateway_and_photo
        controller = AdmissionController(
            max_inflight=3, queue_deadline_s=0.5
        )
        front = AsyncGateway(gateway, controller=controller)
        try:
            assert front.controller is controller
            assert front.stats_payload()["admission"]["max_inflight"] == 3
        finally:
            front.offload.shutdown()  # gateway closed by its fixture

    def test_offload_pool_has_headroom_past_max_inflight(
        self, gateway_and_photo
    ):
        gateway, _ = gateway_and_photo
        controller = AdmissionController(
            max_inflight=3, queue_deadline_s=0.5
        )
        front = AsyncGateway(gateway, controller=controller)
        try:
            assert front.offload.kind == "thread"
            assert front.offload.workers == 3 + OFFLOAD_HEADROOM
        finally:
            front.offload.shutdown()
