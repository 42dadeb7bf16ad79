"""Sync/async front-end parity: same request, same bytes, same status.

The async gateway shares the sync gateway's authentication, view
parsing and error mapping by construction; these tests pin the
contract from the outside — every route and every failure mode must be
indistinguishable to a client, whichever front end answered.
"""

import asyncio
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.api import P3Session
from repro.api.fanout import FanoutPSP
from repro.core.config import P3Config
from repro.crypto.keyring import Keyring
from repro.datasets import usc_sipi_like
from repro.jpeg import markers
from repro.jpeg.codec import (
    decode_coefficients,
    encode_coefficients,
    encode_gray,
    encode_rgb,
    rgb_to_coefficients,
)
from repro.jpeg.encoder import encode_baseline, encode_progressive
from repro.jpeg.scans import ScanSpec
from repro.serve.admission import AdmissionController
from repro.serve.async_gateway import DEGRADED_HEADER, AsyncGateway
from repro.serve.keys import secret_blob_key
from repro.system.client import PhotoSharingClient
from repro.system.gateway import (
    USER_HEADER,
    P3Gateway,
    pixels_from_response,
)
from repro.system.http import HttpRequest, build_url
from repro.system.psp import FacebookPSP, FlickrPSP
from repro.system.storage import CloudStorage

#: libjpeg's progressive script with a restart marker after every MCU.
LIBJPEG_RESTART_1 = (
    Path(__file__).parents[1] / "jpeg" / "fixtures" / "progressive_restart_1.jpg"
)


@pytest.fixture()
def jpeg(scene_corpus):
    return encode_rgb(scene_corpus[0], quality=85)


@pytest.fixture()
def deployment(jpeg):
    """One shared deployment with both front ends over one engine."""
    gateway = P3Gateway(
        FacebookPSP(), CloudStorage(), P3Config(threshold=15, quality=85)
    )
    alice = PhotoSharingClient.for_gateway(gateway, "alice")
    receipt = alice.upload_photo(jpeg, "trip", viewers={"bob"})
    gateway.add_user("bob")
    front = AsyncGateway(gateway)
    yield gateway, front, receipt.photo_id
    front.close()


def get_request(user, path, params=None):
    return HttpRequest(
        method="GET",
        url=build_url("https://gw.example", path, params),
        headers={USER_HEADER: user} if user else {},
    )


def both(gateway, front, request):
    return gateway.handle(request), front.handle_sync(request)


class TestPixelParity:
    def test_keyed_view_bytes_identical(self, deployment):
        gateway, front, photo_id = deployment
        request = get_request(
            "alice", f"/photos/{photo_id}", {"album": "trip", "size": "130"}
        )
        sync_response, async_response = both(gateway, front, request)
        assert sync_response.status == async_response.status == 200
        assert sync_response.body == async_response.body
        assert (
            pixels_from_response(sync_response).tobytes()
            == pixels_from_response(async_response).tobytes()
        )
        assert (
            sync_response.headers["x-image-shape"]
            == async_response.headers["x-image-shape"]
        )
        assert (
            sync_response.headers["x-image-dtype"]
            == async_response.headers["x-image-dtype"]
        )

    def test_cold_async_matches_cold_sync_reference(self, deployment):
        """Order independence: the async cold serve (reconstructed, not
        a cache hit) produces the sync path's exact pixels."""
        gateway, front, photo_id = deployment
        request = get_request(
            "alice", f"/photos/{photo_id}", {"album": "trip", "size": "96"}
        )
        async_cold = front.handle_sync(request)
        assert async_cold.headers["x-cache"] == "reconstructed"
        sync_warm = gateway.handle(request)
        assert async_cold.body == sync_warm.body

    def test_public_only_view_bytes_identical(self, deployment):
        """A tenant with PSP access but no album key degrades to the
        public part on both front ends — identically."""
        gateway, front, photo_id = deployment
        request = get_request("bob", f"/photos/{photo_id}")
        sync_response, async_response = both(gateway, front, request)
        assert sync_response.status == async_response.status == 200
        assert sync_response.body == async_response.body

    def test_cropped_resized_view_bytes_identical(self, deployment):
        gateway, front, photo_id = deployment
        request = get_request(
            "alice",
            f"/photos/{photo_id}",
            {"album": "trip", "size": "96", "crop": "0,0,64,64"},
        )
        sync_response, async_response = both(gateway, front, request)
        assert sync_response.status == async_response.status == 200
        assert sync_response.body == async_response.body

    @pytest.mark.parametrize("stream", ["baseline", "libjpeg-progressive"])
    def test_restart_interval_upload_parity(self, deployment, jpeg, stream):
        """An upload with a restart marker after every MCU is accepted
        by both doors, and both serve each upload's view alike."""
        gateway, front, _ = deployment
        if stream == "baseline":
            body = encode_baseline(decode_coefficients(jpeg), restart_interval=1)
        else:
            body = LIBJPEG_RESTART_1.read_bytes()
        upload = HttpRequest(
            method="POST",
            url=build_url(
                "https://gw.example", "/photos/upload", {"album": "trip"}
            ),
            headers={USER_HEADER: "alice"},
            body=body,
        )
        created = [gateway.handle(upload), front.handle_sync(upload)]
        assert [response.status for response in created] == [201, 201]
        views = []
        for response in created:
            views.extend(
                both(
                    gateway,
                    front,
                    get_request(
                        "alice",
                        f"/photos/{response.body.decode()}",
                        {"album": "trip"},
                    ),
                )
            )
        assert [view.status for view in views] == [200] * 4
        assert len({view.body for view in views}) == 1

    def test_upload_via_async_viewable_via_sync(self, deployment, jpeg):
        gateway, front, _ = deployment
        upload = HttpRequest(
            method="POST",
            url=build_url(
                "https://gw.example", "/photos/upload", {"album": "trip"}
            ),
            headers={USER_HEADER: "alice"},
            body=jpeg,
        )
        created = front.handle_sync(upload)
        assert created.status == 201
        photo_id = created.body.decode()
        view = gateway.handle(
            get_request("alice", f"/photos/{photo_id}", {"album": "trip"})
        )
        assert view.status == 200


def recording(provider: type) -> type:
    """``provider`` subclassed to keep every byte string handed to its
    ``upload``."""

    class Recording(provider):
        def __init__(self) -> None:
            super().__init__()
            self.uploads: list[bytes] = []

        def upload(self, data, owner, viewers=None):
            self.uploads.append(data)
            return super().upload(data, owner, viewers)

    Recording.__name__ = f"Recording{provider.__name__}"
    return Recording


RecordingFacebookPSP = recording(FacebookPSP)
RecordingFlickrPSP = recording(FlickrPSP)


class TestMarkersStayOffThePSP:
    """The proxy hands the PSP a public part it encoded itself: an
    upload's APPn and COM segments (an Exif block can carry a location
    and a full-size thumbnail) never cross the boundary (paper Section
    4.1), through any door (either front end, ``P3Session.upload`` and
    ``batch_upload``) to any provider (Facebook, Flickr, or both behind
    a ``FanoutPSP``)."""

    EXIF = b"Exif\x00\x00GPS 47.6205N 122.3493W; thumbnail follows"
    COMMENT = b"taken from the kitchen window"
    CONFIG = P3Config(threshold=15, quality=85)

    @pytest.fixture()
    def body(self, scene_corpus):
        image = rgb_to_coefficients(scene_corpus[0], quality=85)
        image.app_segments.append((markers.APP1, self.EXIF))
        image.comment = self.COMMENT
        body = encode_coefficients(image)
        assert self.EXIF in body and self.COMMENT in body
        return body

    @staticmethod
    def upload_request(body):
        return HttpRequest(
            method="POST",
            url=build_url("https://gw.example", "/photos/upload", {"album": "trip"}),
            headers={USER_HEADER: "alice"},
            body=body,
        )

    def check(self, uploads, count):
        """``count`` uploads, none carrying the input's APP1 or COM
        payload, each with the encoder's JFIF APP0 as its only APPn."""
        assert len(uploads) == count
        for public in uploads:
            assert self.EXIF[6:] not in public and self.COMMENT not in public
            segments = markers.parse_segments(public)
            assert not any(s.marker == markers.COM for s in segments)
            apps = [
                s for s in segments if markers.APP0 <= s.marker <= markers.APP15
            ]
            assert [s.marker for s in apps] == [markers.APP0]
            assert apps[0].payload.startswith(b"JFIF\x00")

    def test_exif_and_comment_never_reach_the_psp(self, body):
        psp = RecordingFacebookPSP()
        gateway = P3Gateway(psp, CloudStorage(), self.CONFIG)
        PhotoSharingClient.for_gateway(gateway, "alice")
        front = AsyncGateway(gateway)
        upload = self.upload_request(body)
        try:
            created = [gateway.handle(upload), front.handle_sync(upload)]
        finally:
            front.close()
        assert [response.status for response in created] == [201, 201]
        self.check(psp.uploads, 2)

    def test_flickr_and_fanout_behind_the_gateway(self, body):
        flickr = RecordingFlickrPSP()
        fanned = [RecordingFacebookPSP(), RecordingFlickrPSP()]
        for psp in (flickr, FanoutPSP(fanned)):
            gateway = P3Gateway(psp, CloudStorage(), self.CONFIG)
            gateway.add_user("alice")
            assert gateway.handle(self.upload_request(body)).status == 201
        for psp in (flickr, *fanned):
            self.check(psp.uploads, 1)

    def test_session_upload_and_batch_upload(self, body):
        psp = RecordingFacebookPSP()
        session = P3Session(Keyring("alice"), psp, CloudStorage(), self.CONFIG)
        session.upload(body, album="trip")
        report = session.batch_upload([body, body], album="trip", executor="serial")
        assert report.ok and report.total == 2
        self.check(psp.uploads, 3)


class TestZeroCopyHits:
    """A variant-cache hit copies no pixels, whichever front end
    answers.  The cache holds each view as the immutable ``bytes`` its
    miss wrote once, and ``pixel_response`` sends that same object; a
    copy anywhere on a hit's path would trace a whole view."""

    #: Traced peak of one hit, as a multiple of the view's pixel bytes:
    #: the request's small objects, and no pixel copy.
    CEILING = 0.1

    @pytest.fixture()
    def warm(self):
        gateway = P3Gateway(FacebookPSP(), CloudStorage(), P3Config(quality=85))
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        photo = encode_rgb(usc_sipi_like(count=1, size=256)[0], quality=85)
        receipt = alice.upload_photo(photo, "trip")
        request = get_request(
            "alice", f"/photos/{receipt.photo_id}", {"album": "trip"}
        )
        front = AsyncGateway(gateway)
        assert gateway.handle(request).headers["x-cache"] == "reconstructed"
        # One hit through each door first, so one-time set-up (stats
        # windows, admission state) stays out of the traced hit.
        assert gateway.handle(request).headers["x-cache"] == "variant-cache"
        assert front.handle_sync(request).headers["x-cache"] == "variant-cache"
        yield gateway, front, request, receipt.photo_id
        front.close()

    @staticmethod
    def check(response, peak):
        assert response.status == 200
        assert response.headers["x-cache"] == "variant-cache"
        pixel_bytes = len(response.body)
        assert pixel_bytes == 256 * 256 * 3
        assert peak < TestZeroCopyHits.CEILING * pixel_bytes, (
            f"one hit allocated {peak / pixel_bytes:.2f}x its pixel bytes"
        )

    def test_sync_gateway_hit(self, warm):
        gateway, _, request, _ = warm
        tracemalloc.start()
        try:
            response = gateway.handle(request)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.check(response, peak)

    def test_async_gateway_hit_inside_a_running_loop(self, warm):
        _, front, request, _ = warm

        async def traced_hit():
            tracemalloc.start()
            try:
                response = await front.handle(request)
                return response, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        self.check(*asyncio.run(traced_hit()))

    def test_hits_share_one_body(self, warm):
        gateway, front, request, _ = warm
        body = gateway.handle(request).body
        assert gateway.handle(request).body is body
        assert front.handle_sync(request).body is body

    def test_cached_pixels_cannot_be_made_writable(self, warm):
        gateway, _, request, photo_id = warm
        result = gateway.engine.serve(gateway.view_request(request, photo_id))
        assert result.variant_hit
        with pytest.raises(ValueError):
            result.pixels.setflags(write=True)
        with pytest.raises(ValueError):
            result.pixels[0, 0, 0] = 0
        assert result.pixels.tobytes() == result.body

    def test_shed_previews_share_one_body(self, warm):
        gateway, _, _, photo_id = warm
        # A size no serve has cached, so the view needs a slot.
        request = get_request(
            "alice", f"/photos/{photo_id}", {"album": "trip", "size": "96"}
        )
        controller = AdmissionController(max_inflight=1)
        front = AsyncGateway(gateway, controller=controller)
        try:
            assert controller.try_admit("holder") == ("admitted", None)
            for _ in range(controller.queue_capacity):
                assert controller.try_admit("filler")[0] == "queued"
            cold, hit = (front.handle_sync(request) for _ in range(2))
        finally:
            front.close()
        assert cold.headers[DEGRADED_HEADER] == "queue-full"
        assert (cold.headers["x-cache"], hit.headers["x-cache"]) == (
            "reconstructed",
            "variant-cache",
        )
        assert hit.body is cold.body


class CountingPSP(FacebookPSP):
    """A provider that counts its access checks."""

    def __init__(self) -> None:
        super().__init__()
        self.checks = 0

    def check_access(self, photo_id: str, requester: str) -> None:
        self.checks += 1
        super().check_access(photo_id, requester)


class TestOneAccessCheckPerView:
    """Each view asks the provider once, cold, hit or shed, whichever
    front end serves it."""

    @pytest.fixture()
    def deploy(self, jpeg):
        psp = CountingPSP()
        gateway = P3Gateway(
            psp, CloudStorage(), P3Config(threshold=15, quality=85)
        )
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        photo_id = alice.upload_photo(jpeg, "trip").photo_id
        controller = AdmissionController(max_inflight=1)
        front = AsyncGateway(gateway, controller=controller)
        yield psp, gateway, front, controller, photo_id
        front.close()

    @staticmethod
    def view(psp, handle, photo_id, size):
        """One keyed view: its response and the checks it made."""
        before = psp.checks
        response = handle(
            get_request(
                "alice", f"/photos/{photo_id}", {"album": "trip", "size": size}
            )
        )
        assert response.status == 200
        return response, psp.checks - before

    @pytest.mark.parametrize("door", ["sync", "async"])
    def test_cold_and_hit(self, deploy, door):
        psp, gateway, front, _, photo_id = deploy
        handle = gateway.handle if door == "sync" else front.handle_sync
        cold, checks = self.view(psp, handle, photo_id, "130")
        assert (cold.headers["x-cache"], checks) == ("reconstructed", 1)
        hit, checks = self.view(psp, handle, photo_id, "130")
        assert (hit.headers["x-cache"], checks) == ("variant-cache", 1)

    def test_shed(self, deploy):
        psp, _, front, controller, photo_id = deploy
        assert controller.try_admit("holder") == ("admitted", None)
        for _ in range(controller.queue_capacity):
            assert controller.try_admit("filler")[0] == "queued"
        # A cold preview, then a preview the variant cache answers.
        for source in ("reconstructed", "variant-cache"):
            shed, checks = self.view(psp, front.handle_sync, photo_id, "96")
            assert shed.headers[DEGRADED_HEADER] == "queue-full"
            assert (shed.headers["x-cache"], checks) == (source, 1)


class TestErrorParity:
    CASES = [
        ("missing-user", lambda pid: get_request(None, f"/photos/{pid}"), 401),
        (
            "unknown-user",
            lambda pid: get_request("ghost", f"/photos/{pid}"),
            401,
        ),
        (
            "unknown-photo",
            lambda pid: get_request("alice", "/photos/nope"),
            404,
        ),
        (
            "denied-viewer",
            lambda pid: get_request("mallory", f"/photos/{pid}"),
            403,
        ),
        (
            "bad-crop",
            lambda pid: get_request(
                "alice", f"/photos/{pid}", {"crop": "1,2,3"}
            ),
            400,
        ),
        (
            "bad-size",
            lambda pid: get_request(
                "alice", f"/photos/{pid}", {"size": "huge"}
            ),
            400,
        ),
        ("no-route", lambda pid: get_request("alice", "/albums"), 404),
        ("empty-path", lambda pid: get_request("alice", "/photos/"), 404),
        (
            "tampered-envelope",
            lambda pid: get_request(
                "alice", f"/photos/{pid}", {"album": "trip"}
            ),
            502,
        ),
    ]

    @pytest.mark.parametrize(
        "case", CASES, ids=[name for name, _, _ in CASES]
    )
    def test_status_and_body_identical(self, deployment, case):
        name, build, expected = case
        gateway, front, photo_id = deployment
        if name == "denied-viewer":
            gateway.add_user("mallory")
        if name == "tampered-envelope":
            gateway.storage.tamper(
                secret_blob_key("trip", photo_id), offset=40, value=1
            )
        request = build(photo_id)
        sync_response, async_response = both(gateway, front, request)
        assert sync_response.status == expected
        assert async_response.status == expected
        assert sync_response.body == async_response.body
        assert sync_response.headers == async_response.headers

    def test_empty_upload_parity(self, deployment):
        gateway, front, _ = deployment
        upload = HttpRequest(
            method="POST",
            url=build_url(
                "https://gw.example", "/photos/upload", {"album": "trip"}
            ),
            headers={USER_HEADER: "alice"},
            body=b"",
        )
        sync_response, async_response = both(gateway, front, upload)
        assert sync_response.status == async_response.status == 400
        assert sync_response.body == async_response.body

    def test_ac_coefficient_past_15_bits_upload_is_400(self, deployment, jpeg):
        # A progressive upload whose luma AC first scan has Al = 5 and
        # carries 32767 decodes to 1048544.  P3's secret part keeps
        # that magnitude, which no baseline AC symbol can code: the
        # upload must fail when posted, not store a secret part that
        # no longer decodes.
        gateway, front, _ = deployment
        image = decode_coefficients(jpeg)
        image.components[0].coefficients[0, 0, 0, 1] = 32767 << 5
        script = [ScanSpec((0, 1, 2), 0, 0, 0, 0)] + [
            ScanSpec((index,), 1, 63, 0, 5 if index == 0 else 0)
            for index in range(3)
        ]
        hostile = encode_progressive(image, script)
        assert decode_coefficients(hostile).components[0].coefficients[
            0, 0, 0, 1
        ] == 1048544
        upload = HttpRequest(
            method="POST",
            url=build_url(
                "https://gw.example", "/photos/upload", {"album": "trip"}
            ),
            headers={USER_HEADER: "alice"},
            body=hostile,
        )
        sync_response, async_response = both(gateway, front, upload)
        assert sync_response.status == async_response.status == 400
        assert sync_response.body == async_response.body
        assert b"DCT coefficient out of range" in sync_response.body

    def test_interleaved_scan_past_10_blocks_upload_is_400(
        self, deployment, jpeg
    ):
        # A progressive upload with every component sampled 2x2 and one
        # DC scan per component decodes.  P3's parts keep its sampling
        # and are coded as baseline, one interleaved scan of 12 blocks
        # per MCU, which T.81 B.2.3 forbids and the decoder refuses:
        # the encoder must refuse to write the parts, so the upload
        # fails at the split, before any part reaches a provider.
        gateway, front, _ = deployment
        image = decode_coefficients(jpeg)
        for component in image.components:
            component.h_sampling = component.v_sampling = 2
        script = [ScanSpec((index,), 0, 0, 0, 0) for index in range(3)] + [
            ScanSpec((index,), 1, 63, 0, 0) for index in range(3)
        ]
        hostile = encode_progressive(image, script)
        decoded = decode_coefficients(hostile)
        assert [(c.h_sampling, c.v_sampling) for c in decoded.components] == [
            (2, 2)
        ] * 3
        upload = HttpRequest(
            method="POST",
            url=build_url(
                "https://gw.example", "/photos/upload", {"album": "trip"}
            ),
            headers={USER_HEADER: "alice"},
            body=hostile,
        )
        sync_response, async_response = both(gateway, front, upload)
        assert sync_response.status == async_response.status == 400
        assert sync_response.body == async_response.body
        assert sync_response.body.startswith(
            b"interleaved scan of 12 blocks per MCU"
        )

    def test_frame_over_the_pixel_budget_upload_is_400(self, deployment):
        # An 8x8 JPEG whose SOF claims 65000x65000 is refused from its
        # frame header, before the decoder sizes a coefficient array.
        gateway, front, _ = deployment
        forged = bytearray(encode_gray(np.zeros((8, 8)), quality=85))
        sof = forged.index(b"\xff\xc0")
        forged[sof + 5 : sof + 9] = struct.pack(">HH", 65000, 65000)
        upload = HttpRequest(
            method="POST",
            url=build_url(
                "https://gw.example", "/photos/upload", {"album": "trip"}
            ),
            headers={USER_HEADER: "alice"},
            body=bytes(forged),
        )
        sync_response, async_response = both(gateway, front, upload)
        assert sync_response.status == async_response.status == 400
        assert sync_response.body == async_response.body
        assert sync_response.body.startswith(b"frame 65000x65000")

    def test_header_the_scan_cannot_fill_upload_is_400(self, deployment):
        # An 8x8 4:4:4 JPEG whose SOF claims 8192x8192 is inside the
        # pixel budget; its first scan's 3145728 blocks cannot fit its
        # entropy bytes, so it is refused before any array is sized.
        gateway, front, _ = deployment
        rgb = np.random.default_rng(1).integers(0, 256, (8, 8, 3))
        forged = bytearray(encode_rgb(rgb.astype(np.uint8), quality=85))
        sof = forged.index(b"\xff\xc0")
        forged[sof + 5 : sof + 9] = struct.pack(">HH", 8192, 8192)
        upload = HttpRequest(
            method="POST",
            url=build_url(
                "https://gw.example", "/photos/upload", {"album": "trip"}
            ),
            headers={USER_HEADER: "alice"},
            body=bytes(forged),
        )
        sync_response, async_response = both(gateway, front, upload)
        assert sync_response.status == async_response.status == 400
        assert sync_response.body == async_response.body
        assert sync_response.body.startswith(b"scan of 3145728 blocks")

    def test_missing_album_upload_parity(self, deployment, jpeg):
        gateway, front, _ = deployment
        upload = HttpRequest(
            method="POST",
            url=build_url("https://gw.example", "/photos/upload", {}),
            headers={USER_HEADER: "alice"},
            body=jpeg,
        )
        sync_response, async_response = both(gateway, front, upload)
        assert sync_response.status == async_response.status == 400
        assert sync_response.body == async_response.body


class TestCropGeometry:
    """A crop the serving tier cannot serve is a 400 on both front ends,
    whether one provider or a fan-out fleet stands behind the gateway: a
    fleet must not ask every provider and answer 404 "all 2 providers
    failed"."""

    CROPS = {
        "empty": {"crop": "0,0,0,0", "size": "130"},
        "negative-origin": {"crop": "-5,0,10,10", "size": "130"},
        "keyed-without-size": {"crop": "0,0,10,10"},
    }

    @staticmethod
    def deploy(jpeg, fleet):
        """A gateway over ``fleet`` holding one photo of alice's, plus the
        list that every provider download is appended to."""
        providers = (
            [FacebookPSP()]
            if fleet == "facebook"
            else [FacebookPSP(), FlickrPSP()]
        )
        psp = providers[0] if fleet == "facebook" else FanoutPSP(providers)
        gateway = P3Gateway(psp, CloudStorage(), P3Config(quality=85))
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        photo_id = alice.upload_photo(jpeg, "trip").photo_id
        downloads = []
        for provider in providers:
            real_download = provider.download

            def counting_download(*args, _real=real_download, **kwargs):
                downloads.append(args)
                return _real(*args, **kwargs)

            provider.download = counting_download
        return gateway, photo_id, downloads

    @staticmethod
    def get(gateway, front_end, photo_id, params):
        request = get_request(
            "alice", f"/photos/{photo_id}", {"album": "trip", **params}
        )
        if front_end == "sync":
            return gateway.handle(request)
        front = AsyncGateway(gateway)
        try:
            return front.handle_sync(request)
        finally:
            front.close()

    @pytest.mark.parametrize("crop", CROPS)
    @pytest.mark.parametrize("fleet", ["facebook", "fanout"])
    @pytest.mark.parametrize("front_end", ["sync", "async"])
    def test_bad_crop_is_400_before_any_backend_call(
        self, jpeg, front_end, fleet, crop
    ):
        gateway, photo_id, downloads = self.deploy(jpeg, fleet)
        gets_before = gateway.storage.get_count
        response = self.get(gateway, front_end, photo_id, self.CROPS[crop])
        assert response.status == 400, response.body
        assert downloads == []
        assert gateway.storage.get_count == gets_before
        assert len(gateway.engine.variant_cache) == 0

    @pytest.mark.parametrize("fleet", ["facebook", "fanout"])
    @pytest.mark.parametrize("front_end", ["sync", "async"])
    def test_crop_beyond_the_served_plane_is_400(
        self, jpeg, front_end, fleet
    ):
        """Only a provider knows the served plane, so this crop reaches
        every provider; a fleet that they all reject answers the lone
        provider's 400, not 404 "all 2 providers failed"."""
        gateway, photo_id, downloads = self.deploy(jpeg, fleet)
        response = self.get(
            gateway,
            front_end,
            photo_id,
            {"crop": "0,0,500,500", "size": "130"},
        )
        assert response.status == 400, response.body
        assert b"exceeds plane" in response.body
        assert len(downloads) == (1 if fleet == "facebook" else 2)
        assert len(gateway.engine.variant_cache) == 0

    def test_keyless_crop_without_size_is_served(self, deployment):
        """Without the album key only the public part is decoded, so a
        crop needs no served size: both front ends answer 200."""
        gateway, front, photo_id = deployment
        request = get_request(
            "bob", f"/photos/{photo_id}", {"crop": "0,0,64,64"}
        )
        sync_response, async_response = both(gateway, front, request)
        assert sync_response.status == async_response.status == 200
        assert sync_response.body == async_response.body
