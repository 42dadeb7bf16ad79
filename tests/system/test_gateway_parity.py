"""Sync/async front-end parity: same request, same bytes, same status.

The async gateway shares the sync gateway's authentication, view
parsing and error mapping by construction; these tests pin the
contract from the outside — every route and every failure mode must be
indistinguishable to a client, whichever front end answered.
"""

import pytest

from repro.api.fanout import FanoutPSP
from repro.core.config import P3Config
from repro.jpeg.codec import decode_coefficients, encode_rgb
from repro.jpeg.encoder import encode_progressive
from repro.jpeg.scans import ScanSpec
from repro.serve.async_gateway import AsyncGateway
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
