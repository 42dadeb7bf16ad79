"""Tests for the multi-user P3Gateway and its HTTP surface."""

import json
import threading

import numpy as np
import pytest

from repro.core.config import P3Config
from repro.crypto.keyring import Keyring
from repro.jpeg.codec import encode_rgb
from repro.system.client import PhotoSharingClient
from repro.system.gateway import (
    USER_HEADER,
    P3Gateway,
    pixel_response,
    pixels_from_response,
)
from repro.system.http import HttpRequest, build_url
from repro.system.psp import FacebookPSP
from repro.system.storage import CloudStorage


@pytest.fixture()
def gateway():
    return P3Gateway(
        FacebookPSP(), CloudStorage(), P3Config(threshold=15, quality=85)
    )


@pytest.fixture()
def jpeg(scene_corpus):
    return encode_rgb(scene_corpus[0], quality=85)


def get(gateway, user, path, params=None):
    return gateway.handle(
        HttpRequest(
            method="GET",
            url=build_url("https://gw.example", path, params),
            headers={USER_HEADER: user} if user else {},
        )
    )


class TestTenancy:
    def test_add_user_is_idempotent(self, gateway):
        first = gateway.add_user("alice")
        assert gateway.add_user("alice") is first
        assert gateway.users == ["alice"]

    def test_conflicting_keyring_rejected(self, gateway):
        gateway.add_user("alice")
        with pytest.raises(ValueError, match="already registered"):
            gateway.add_user("alice", Keyring("alice"))

    def test_share_album_moves_keys(self, gateway, jpeg):
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        bob = PhotoSharingClient.for_gateway(gateway, "bob")
        receipt = alice.upload_photo(jpeg, "trip", viewers={"bob"})
        gateway.share_album("alice", "trip", "bob")
        pixels = bob.view_photo(receipt.photo_id, "trip", resolution=130)
        assert pixels.ndim == 3


class TestHttpSurface:
    def test_upload_then_view_roundtrip(self, gateway, jpeg):
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        receipt = alice.upload_photo(jpeg, "trip")
        assert receipt.public_bytes > 0 and receipt.secret_bytes > 0
        pixels = alice.view_photo(receipt.photo_id, "trip", resolution=720)
        assert pixels.dtype == np.uint8 and pixels.ndim == 3
        # The traffic is real request/response round trips.
        assert alice.request_log[0].method == "POST"
        assert alice.request_log[1].method == "GET"
        assert receipt.photo_id in alice.request_log[1].url

    def test_missing_user_is_401(self, gateway, jpeg):
        response = get(gateway, None, "/photos/xyz")
        assert response.status == 401
        response = get(gateway, "nobody", "/photos/xyz")
        assert response.status == 401

    def test_unknown_photo_is_404(self, gateway):
        gateway.add_user("alice")
        assert get(gateway, "alice", "/photos/missing").status == 404

    def test_access_denied_is_403(self, gateway, jpeg):
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        receipt = alice.upload_photo(jpeg, "trip")  # no viewers
        gateway.add_user("mallory")
        response = get(gateway, "mallory", f"/photos/{receipt.photo_id}")
        assert response.status == 403

    def test_bad_requests_are_400(self, gateway, jpeg):
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        receipt = alice.upload_photo(jpeg, "trip")
        response = get(
            gateway,
            "alice",
            f"/photos/{receipt.photo_id}",
            {"album": "trip", "crop": "1,2,3"},
        )
        assert response.status == 400
        response = gateway.handle(
            HttpRequest(
                method="POST",
                url=build_url("https://gw.example", "/photos/upload", {}),
                headers={USER_HEADER: "alice"},
                body=b"",
            )
        )
        assert response.status == 400

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_non_positive_size_is_400_before_any_work(
        self, gateway, jpeg, monkeypatch, size
    ):
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        receipt = alice.upload_photo(jpeg, "trip")
        downloads = []
        real_download = gateway.psp.download

        def counting_download(*args, **kwargs):
            downloads.append(args)
            return real_download(*args, **kwargs)

        monkeypatch.setattr(gateway.psp, "download", counting_download)
        cached = len(gateway.engine.variant_cache)
        response = get(
            gateway,
            "alice",
            f"/photos/{receipt.photo_id}",
            {"album": "trip", "size": size},
        )
        assert response.status == 400
        assert b"resolution" in response.body
        assert downloads == []
        assert len(gateway.engine.variant_cache) == cached

    def test_unknown_route_is_404(self, gateway):
        gateway.add_user("alice")
        assert get(gateway, "alice", "/albums").status == 404

    def test_backend_outage_is_502_not_a_crash(self, jpeg):
        """Regression: handle() promises 'never raises' — backend
        failures that are not ValueError/KeyError subclasses
        (ConnectionError, fan-out upload errors) must map to 502."""

        class DeadStore:
            name = "dead"

            def put(self, key, blob):
                raise ConnectionError("store unreachable")

            def get(self, key):
                raise ConnectionError("store unreachable")

            def exists(self, key):
                return False

            def delete(self, key):
                pass

        gateway = P3Gateway(FacebookPSP(), DeadStore(), P3Config())
        gateway.add_user("alice")
        response = gateway.handle(
            HttpRequest(
                method="POST",
                url=build_url(
                    "https://gw.example", "/photos/upload", {"album": "a"}
                ),
                headers={USER_HEADER: "alice"},
                body=jpeg,
            )
        )
        assert response.status == 502
        assert b"ConnectionError" in response.body

    def test_without_key_gets_degraded_public_view(self, gateway, jpeg):
        """A tenant with PSP access but no album key (Figure 4)."""
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        receipt = alice.upload_photo(jpeg, "trip", viewers={"carol"})
        carol = PhotoSharingClient.for_gateway(gateway, "carol")
        keyed = alice.view_photo(receipt.photo_id, "trip", resolution=130)
        degraded = carol.view_photo(receipt.photo_id, "trip", resolution=130)
        assert degraded.shape == keyed.shape
        assert degraded.tobytes() != keyed.tobytes()

    def test_stats_endpoint_reports_engine_counters(self, gateway, jpeg):
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        receipt = alice.upload_photo(jpeg, "trip")
        alice.view_photo(receipt.photo_id, "trip", resolution=130)
        alice.view_photo(receipt.photo_id, "trip", resolution=130)
        response = get(gateway, "alice", "/stats")
        assert response.status == 200
        stats = json.loads(response.body)
        assert stats["serving"]["requests"] == 2
        assert stats["variant_cache"]["hits"] == 1

    def test_cache_provenance_headers(self, gateway, jpeg):
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        receipt = alice.upload_photo(jpeg, "trip")
        cold = get(
            gateway, "alice",
            f"/photos/{receipt.photo_id}", {"album": "trip"},
        )
        warm = get(
            gateway, "alice",
            f"/photos/{receipt.photo_id}", {"album": "trip"},
        )
        assert cold.headers["x-cache"] == "reconstructed"
        assert warm.headers["x-cache"] == "variant-cache"
        assert float(warm.headers["x-serve-ms"]) < float(
            cold.headers["x-serve-ms"]
        )
        assert pixels_from_response(cold).tobytes() == pixels_from_response(
            warm
        ).tobytes()


class TestSharedEngine:
    def test_viewers_share_one_cache(self, gateway, jpeg):
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        receipt = alice.upload_photo(
            jpeg, "trip", viewers={"bob", "carol"}
        )
        gateway.share_album("alice", "trip", *(
            PhotoSharingClient.for_gateway(gateway, name).user
            for name in ("bob", "carol")
        ))
        bob = PhotoSharingClient(user="bob", gateway=gateway)
        carol = PhotoSharingClient(user="carol", gateway=gateway)
        first = bob.view_photo(receipt.photo_id, "trip", resolution=130)
        second = carol.view_photo(receipt.photo_id, "trip", resolution=130)
        assert first.tobytes() == second.tobytes()
        # Carol's view was served from the variant Bob warmed.
        assert gateway.engine.variant_cache.stats.count("hits") == 1
        assert gateway.engine.stats.count("reconstructions") == 1

    def test_concurrent_first_uploads_to_new_album_all_succeed(
        self, gateway, jpeg
    ):
        """Regression: two racing first uploads to a brand-new album
        must not 400 on the create_album check-then-create."""
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        results = []
        errors = []

        def upload():
            try:
                results.append(alice.upload_photo(jpeg, "fresh-album"))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=upload) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(results) == 4
        assert len({receipt.photo_id for receipt in results}) == 4

    def test_concurrent_tenants_are_safe_and_coalesce(self, gateway, jpeg):
        """A small hammer: many tenants, one hot photo, no corruption."""
        alice = PhotoSharingClient.for_gateway(gateway, "alice")
        viewers = {f"user{i}" for i in range(6)}
        receipt = alice.upload_photo(jpeg, "trip", viewers=viewers)
        clients = [
            PhotoSharingClient.for_gateway(gateway, name)
            for name in sorted(viewers)
        ]
        gateway.share_album("alice", "trip", *sorted(viewers))
        results = []
        errors = []

        def view(client):
            try:
                results.append(
                    client.view_photo(
                        receipt.photo_id, "trip", resolution=130
                    ).tobytes()
                )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=view, args=(client,))
            for client in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(set(results)) == 1  # every tenant saw identical bytes
        snapshot = gateway.engine.snapshot()
        assert snapshot["serving"]["requests"] == 6
        # However the arrivals interleaved, reconstruction happened once
        # per variant; the rest were cache hits or coalesced waiters.
        assert snapshot["serving"]["reconstructions"] == 1


class TestPixelCodec:
    def test_response_roundtrip_preserves_shape_and_bytes(self):
        from repro.serve.engine import ServeResult

        pixels = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        response = pixel_response(
            ServeResult(body=pixels.tobytes(), pixels=pixels, photo_id="p")
        )
        decoded = pixels_from_response(response)
        assert decoded.shape == pixels.shape
        assert decoded.tobytes() == pixels.tobytes()


class TestReprThreadSafety:
    """Regression: repr used to read the keyring table outside the lock
    (flagged by relint's lock-discipline rule).  It must report a count
    snapshotted under the lock while registrations race."""

    def test_repr_counts_users(self):
        gateway = P3Gateway(FacebookPSP(), CloudStorage())
        gateway.add_user("alice")
        gateway.add_user("bob")
        assert "users=2" in repr(gateway)

    def test_hammer_repr_during_registration(self):
        gateway = P3Gateway(FacebookPSP(), CloudStorage())
        errors: list[Exception] = []

        def register(prefix: str) -> None:
            try:
                for index in range(200):
                    gateway.add_user(f"{prefix}-{index}")
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def read_repr() -> None:
            try:
                for _ in range(400):
                    repr(gateway)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=register, args=(prefix,))
            for prefix in ("u", "v")
        ] + [threading.Thread(target=read_repr) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(gateway.users) == 400
