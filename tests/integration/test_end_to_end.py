"""Full-system integration tests across trust boundaries."""

import numpy as np
import pytest

from repro.api.pipeline import DecryptTask, run_decrypt_task
from repro.api.session import DownloadRequest, P3Session
from repro.core.config import P3Config
from repro.crypto.keyring import Keyring
from repro.jpeg.codec import decode, encode_rgb
from repro.serve.keys import secret_blob_key
from repro.system.client import PhotoSharingClient
from repro.system.gateway import P3Gateway
from repro.system.psp import FacebookPSP, FlickrPSP
from repro.system.reverse import reverse_engineer
from repro.system.storage import CloudStorage
from repro.vision.kernels import to_luma
from repro.vision.metrics import psnr, ssim


def device(keys, psp, storage, config=None, transform_estimate=None):
    """One user's app behind their own one-user gateway (the paper's
    one-device deployment)."""
    gateway = P3Gateway(
        psp, storage, config, transform_estimate=transform_estimate
    )
    gateway.add_user(keys.owner, keys)
    return PhotoSharingClient(keys.owner, gateway)


@pytest.fixture(scope="module")
def shared_world(scene_corpus):
    alice_keys = Keyring("alice")
    alice_keys.create_album("trip")
    bob_keys = Keyring("bob")
    alice_keys.share_with(bob_keys, "trip")
    psp = FacebookPSP()
    storage = CloudStorage()
    alice = device(
        alice_keys, psp, storage, P3Config(threshold=15, quality=88)
    )
    bob = device(bob_keys, psp, storage)
    jpeg = encode_rgb(scene_corpus[0], quality=88)
    receipt = alice.upload_photo(jpeg, "trip", viewers={"bob"})
    return alice, bob, psp, storage, jpeg, receipt


class TestMultiResolutionViewing:
    @pytest.mark.parametrize("resolution", [75, 130, 720])
    def test_every_static_resolution_reconstructs(
        self, shared_world, resolution
    ):
        _, bob, _, _, jpeg, receipt = shared_world
        pixels = bob.view_photo(receipt.photo_id, "trip", resolution=resolution)
        assert max(pixels.shape[:2]) <= max(resolution, 256)
        reference_psp = FacebookPSP()
        ref_id = reference_psp.upload(jpeg, owner="x")
        reference = decode(
            reference_psp.download(ref_id, "x", resolution=resolution)
        )
        assert psnr(to_luma(reference), to_luma(pixels)) > 25.0


class TestReverseEngineeredPipeline:
    def test_calibrated_recipient_improves_reconstruction(
        self, shared_world, scene_corpus
    ):
        alice, bob, psp, storage, jpeg, receipt = shared_world
        # Calibrate against a scratch PSP with the same private pipeline.
        calibration_psp = FacebookPSP()
        originals = []
        serveds = []
        for image in scene_corpus[:2]:
            cal_jpeg = encode_rgb(image, quality=88)
            pid = calibration_psp.upload(cal_jpeg, owner="cal")
            served = decode(
                calibration_psp.download(pid, "cal", resolution=130)
            )
            originals.append(to_luma(decode(cal_jpeg)))
            serveds.append(to_luma(served))
        estimate = reverse_engineer(originals, serveds)
        assert estimate.score_db > 25.0

        calibrated_bob = device(
            bob.gateway.keyring_for("bob"),
            psp,
            storage,
            transform_estimate=estimate,
        )
        reference_psp = FacebookPSP()
        ref_id = reference_psp.upload(jpeg, owner="x")
        reference = to_luma(
            decode(reference_psp.download(ref_id, "x", resolution=130))
        )
        calibrated = to_luma(
            calibrated_bob.view_photo(receipt.photo_id, "trip", resolution=130)
        )
        naive = to_luma(bob.view_photo(receipt.photo_id, "trip", resolution=130))
        assert psnr(reference, calibrated) >= psnr(reference, naive) - 0.5
        assert psnr(reference, calibrated) > 28.0


class TestCrossProviderPortability:
    def test_same_flow_works_on_flickr(self, scene_corpus):
        """P3 'can be extended to other services': the identical client
        and proxy code must work against the Flickr-like PSP."""
        keys = Keyring("carol")
        keys.create_album("album1")
        psp = FlickrPSP()
        storage = CloudStorage()
        carol = device(
            keys, psp, storage, P3Config(threshold=10, quality=90)
        )
        jpeg = encode_rgb(scene_corpus[1], quality=90)
        receipt = carol.upload_photo(jpeg, "album1")
        # The corpus image is 128 px; request Flickr's 100-px variant.
        pixels = carol.view_photo(receipt.photo_id, "album1", resolution=100)
        assert max(pixels.shape[:2]) == 100


class TestThreatModel:
    def test_psp_analysis_on_p3_photos_sees_degraded_content(
        self, shared_world
    ):
        """The PSP 'may be able to infer social contexts' from stored
        photos; with P3 it only analyzes the degraded public part."""
        alice, _, psp, _, jpeg, receipt = shared_world
        original = to_luma(decode(jpeg))

        def fidelity_to_original(pixels):
            luma = to_luma(pixels)
            if luma.shape != original.shape:
                from repro.transforms.resize import resize_plane

                luma = resize_plane(
                    luma, original.shape[0], original.shape[1]
                )
            return psnr(original, luma)

        results = psp.run_analysis(fidelity_to_original, resolution=720)
        # The stored public part is in the degraded 10-25 dB band.
        assert results[receipt.photo_id] < 25.0

    def test_storage_provider_learns_nothing_decodable(self, shared_world):
        _, _, _, storage, _, receipt = shared_world
        blob = storage.snoop(secret_blob_key("trip", receipt.photo_id))
        from repro.jpeg.markers import JpegFormatError, parse_segments

        with pytest.raises(JpegFormatError):
            parse_segments(blob)

    def test_tampering_detected_not_silent(self, shared_world, scene_corpus):
        """A tampered envelope fails the view with a 502 — the fault is
        upstream storage, not the app's request."""
        alice, bob, psp, storage, jpeg, _ = shared_world
        receipt = alice.upload_photo(jpeg, "trip", viewers={"bob"})
        storage.tamper(
            secret_blob_key("trip", receipt.photo_id), offset=40, value=1
        )
        with pytest.raises(RuntimeError, match="502.*EnvelopeError"):
            bob.view_photo(receipt.photo_id, "trip", resolution=130)


def session_door(kind):
    """``P3Session.download`` (``kind=None``) or a one-item
    ``batch_download`` on the ``kind`` executor."""

    def view(keys, psp, storage, request):
        session = P3Session(keys, psp, storage)
        if kind is None:
            return session.download(request)
        report = session.batch_download([request], executor=kind)
        assert report.ok, report.failures
        return report.results[0]

    return view


def gateway_door(keys, psp, storage, request):
    """The unmodified app behind a one-user gateway."""
    app = device(keys, psp, storage)
    if request.public_only:
        return app.view_photo_without_key(
            request.photo_id, resolution=request.resolution
        )
    return app.view_photo(
        request.photo_id,
        request.album,
        resolution=request.resolution,
        crop_box=request.crop_box,
    )


DOORS = {
    "session": session_door(None),
    "batch-serial": session_door("serial"),
    "batch-process": session_door("process"),
    "gateway": gateway_door,
}

#: (resolution, crop_box, public_only) per view.
VIEWS = {
    "full": (None, None, False),
    "size130": (130, None, False),
    "size128-crop": (128, (8, 8, 64, 64), False),
    "public-only": (None, None, True),
}


class TestEveryDoorServesTheReference:
    """Both forms of the trusted proxy — the in-process session (single
    and batch reads) and a one-user gateway behind the unmodified app —
    serve exactly the cache-free reference: ``run_decrypt_task`` over
    the raw PSP and storage bytes."""

    @pytest.fixture(scope="class")
    def published(self, scene_corpus):
        keys = Keyring("alice")
        psp, storage = FacebookPSP(), CloudStorage()
        record = P3Session(
            keys, psp, storage, P3Config(threshold=15, quality=88)
        ).upload(encode_rgb(scene_corpus[0], quality=88), album="trip")
        return keys, psp, storage, record.photo_id

    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("door", DOORS)
    def test_door_matches_cache_free_reference(self, published, door, view):
        keys, psp, storage, photo_id = published
        resolution, crop_box, public_only = VIEWS[view]
        reference = run_decrypt_task(
            DecryptTask(
                key=None if public_only else keys.key_for("trip"),
                public_jpeg=psp.download(
                    photo_id,
                    requester=keys.owner,
                    resolution=resolution,
                    crop_box=crop_box,
                ),
                secret_envelope=(
                    None
                    if public_only
                    else storage.get(secret_blob_key("trip", photo_id))
                ),
                resolution=resolution,
                crop_box=crop_box,
            )
        )
        request = DownloadRequest(
            photo_id,
            "trip",
            resolution=resolution,
            crop_box=crop_box,
            public_only=public_only,
        )
        served = DOORS[door](keys, psp, storage, request)
        assert served.shape == reference.shape
        assert np.array_equal(served, reference)
