"""Tests for the PSP simulators."""

import numpy as np
import pytest

from repro.jpeg.codec import decode, encode_rgb, image_info
from repro.system.psp import (
    AccessDeniedError,
    FacebookPSP,
    FlickrPSP,
    PhotoBucketPSP,
    UploadRejectedError,
)


@pytest.fixture(scope="module")
def photo_bytes(scene_corpus):
    return encode_rgb(scene_corpus[0], quality=88)


class TestUpload:
    def test_returns_opaque_id(self, photo_bytes):
        psp = FacebookPSP()
        photo_id = psp.upload(photo_bytes, owner="alice")
        assert len(photo_id) == 16
        assert photo_id != psp.upload(photo_bytes, owner="alice")

    def test_rejects_encrypted_blob(self):
        """End-to-end encryption fails at ingestion (paper Section 3.1)."""
        psp = FacebookPSP()
        with pytest.raises(UploadRejectedError):
            psp.upload(b"\x00" * 5000, owner="alice")

    def test_rejects_truncated_jpeg(self, photo_bytes):
        psp = FacebookPSP()
        with pytest.raises(UploadRejectedError):
            psp.upload(photo_bytes[: len(photo_bytes) // 2], owner="alice")

    def test_creates_static_variants(self, photo_bytes):
        psp = FacebookPSP()
        photo_id = psp.upload(photo_bytes, owner="alice")
        for resolution in psp.static_resolutions:
            data = psp.stored_variant(photo_id, resolution)
            info = image_info(data)
            assert max(info.width, info.height) <= resolution or (
                resolution >= 720
            )


class TestGrayscaleUpload:
    def test_variants_are_rounded_not_truncated(self):
        """A grey upload decodes to float luma; the provider rounds it to
        uint8.  Flickr's 1024 variant of a 256px photo is a same-size
        Lanczos resample with no sharpening, so its decode may differ
        from the upload's only by re-quantization noise, which averages
        out.  A truncating cast biased it by -0.625 levels."""
        from repro.datasets.scenes import render_scene
        from repro.jpeg.codec import encode_gray, rgb_to_ycbcr

        luma = rgb_to_ycbcr(render_scene(7, 256, 256))[..., 0]
        data = encode_gray(luma, quality=85)
        psp = FlickrPSP()
        photo_id = psp.upload(data, owner="alice")
        variant = decode(psp.stored_variant(photo_id, 1024))
        assert variant.shape == (256, 256)
        error = variant - np.clip(decode(data), 0, 255)
        assert abs(error.mean()) < 0.05

    @staticmethod
    def _three_channel_form(psp, pixels, resolution, crop_box=None):
        """A grey photo's variant as the provider once made it: the
        float luma as three equal channels, each resized (sharpened
        when stored, cropped when served) and packed, channel 0
        encoded."""
        from repro.jpeg.codec import encode_gray
        from repro.jpeg.native.pixels import planes_to_rgb8
        from repro.transforms.crop import Crop
        from repro.transforms.enhance import unsharp_mask
        from repro.transforms.resize import fit_within, resize_plane

        pipeline = psp._pipeline
        stored = crop_box is None and resolution in psp.static_resolutions
        rgb = planes_to_rgb8([pixels] * 3) if stored else np.stack([pixels] * 3, -1)
        out_h, out_w = fit_within(*pixels.shape, resolution, resolution)
        planes = []
        for channel in range(3):
            plane = resize_plane(rgb[..., channel], out_h, out_w, pipeline.kernel)
            if stored and pipeline.sharpen_amount > 0:
                plane = unsharp_mask(plane, radius=1.0, amount=pipeline.sharpen_amount)
            if crop_box is not None:
                plane = Crop(*crop_box)(plane)
            planes.append(plane)
        return encode_gray(
            planes_to_rgb8(planes)[..., 0].astype(np.float64),
            quality=pipeline.quality,
            progressive=pipeline.progressive,
        )

    @pytest.mark.parametrize("provider", [FacebookPSP, FlickrPSP])
    def test_one_plane_variants_match_the_three_channel_form(
        self, provider, gray_image
    ):
        from repro.jpeg.codec import encode_gray

        data = encode_gray(gray_image, quality=85)
        psp = provider()
        photo_id = psp.upload(data, owner="alice")
        for resolution in psp.static_resolutions:
            assert psp.stored_variant(photo_id, resolution) == (
                self._three_channel_form(psp, decode(data), resolution)
            )
        source = decode(psp.stored_variant(photo_id, min(psp.static_resolutions)))
        for resolution, crop_box in ((50, None), (60, (4, 6, 30, 40))):
            served = psp.download(photo_id, "alice", resolution, crop_box)
            assert served == self._three_channel_form(
                psp, source, resolution, crop_box
            )

    def test_resizes_one_plane_per_grey_variant(self, gray_image, monkeypatch):
        from repro.jpeg.codec import encode_gray
        from repro.system import psp as psp_module

        calls = []
        resize = psp_module.resize_plane

        def counting_resize(*args, **kwargs):
            calls.append(args[0].shape)
            return resize(*args, **kwargs)

        monkeypatch.setattr(psp_module, "resize_plane", counting_resize)
        psp = FacebookPSP()
        photo_id = psp.upload(encode_gray(gray_image, quality=85), owner="alice")
        assert len(calls) == len(psp.static_resolutions) == 3
        psp.download(photo_id, "alice", resolution=50)
        assert len(calls) == 4


class TestFacebookBehaviour:
    def test_serves_progressive(self, photo_bytes):
        psp = FacebookPSP()
        photo_id = psp.upload(photo_bytes, owner="alice")
        served = psp.download(photo_id, "alice", resolution=130)
        assert image_info(served).progressive

    def test_strips_markers(self, scene_corpus):
        from repro.jpeg import markers as m
        from repro.jpeg.codec import (
            encode_coefficients,
            rgb_to_coefficients,
        )

        image = rgb_to_coefficients(scene_corpus[0], quality=88)
        image.app_segments.append((m.APP1, b"Exif\x00\x00location-data"))
        data = encode_coefficients(image)
        psp = FacebookPSP()
        photo_id = psp.upload(data, owner="alice")
        served = psp.download(photo_id, "alice", resolution=130)
        info = image_info(served)
        assert all(not a.startswith("APP1") for a in info.app_markers)

    def test_resolution_720_cap(self, photo_bytes):
        psp = FacebookPSP()
        photo_id = psp.upload(photo_bytes, owner="alice")
        served = psp.download(photo_id, "alice")  # largest
        info = image_info(served)
        assert max(info.width, info.height) <= 720


class TestAccessControl:
    def test_viewer_allowed(self, photo_bytes):
        psp = FacebookPSP()
        photo_id = psp.upload(photo_bytes, owner="alice", viewers={"bob"})
        assert psp.download(photo_id, "bob", resolution=130)

    def test_stranger_denied(self, photo_bytes):
        psp = FacebookPSP()
        photo_id = psp.upload(photo_bytes, owner="alice")
        with pytest.raises(AccessDeniedError):
            psp.download(photo_id, "mallory")

    def test_owner_always_allowed(self, photo_bytes):
        psp = FacebookPSP()
        photo_id = psp.upload(photo_bytes, owner="alice")
        assert psp.download(photo_id, "alice", resolution=75)


class TestFusking:
    def test_photobucket_ids_guessable(self, photo_bytes):
        psp = PhotoBucketPSP()
        psp.upload(photo_bytes, owner="victim")
        # An attacker enumerates sequential IDs without authorization.
        leaked = psp.download("img000001", "attacker")
        assert decode(leaked).size > 0

    def test_facebook_ids_not_sequential(self, photo_bytes):
        psp = FacebookPSP()
        psp.upload(photo_bytes, owner="victim")
        with pytest.raises(KeyError):
            psp.download("img000001", "victim")


class TestVariantCap:
    """Requests beyond the largest stored variant serve it as-is."""

    def test_oversize_request_serves_stored_bytes(self, photo_bytes):
        psp = FacebookPSP()
        photo_id = psp.upload(photo_bytes, owner="alice")
        served = psp.download(photo_id, "alice", resolution=5000)
        assert served == psp.stored_variant(photo_id, 720)
        # ...and matches the default (largest) download exactly: no
        # decode + re-encode generation loss on the capped path.
        assert served == psp.download(photo_id, "alice")

    def test_photobucket_shares_the_capped_machinery(self, photo_bytes):
        psp = PhotoBucketPSP()
        photo_id = psp.upload(photo_bytes, owner="alice")
        served = psp.download(photo_id, "anyone", resolution=5000)
        assert served == psp.stored_variant(photo_id, 640)

    def test_oversize_request_with_crop_still_crops(self, photo_bytes):
        psp = FacebookPSP()
        photo_id = psp.upload(photo_bytes, owner="alice")
        served = psp.download(
            photo_id, "alice", resolution=5000, crop_box=(0, 0, 32, 32)
        )
        info = image_info(served)
        assert (info.height, info.width) == (32, 32)


class TestDelete:
    def test_delete_removes_photo(self, photo_bytes):
        psp = FacebookPSP()
        photo_id = psp.upload(photo_bytes, owner="alice")
        psp.delete(photo_id)
        assert psp.all_photo_ids() == []
        with pytest.raises(KeyError):
            psp.download(photo_id, "alice")

    def test_delete_missing_is_a_noop(self):
        PhotoBucketPSP().delete("img999999")  # must not raise


class TestDynamicTransforms:
    def test_dynamic_resize(self, photo_bytes):
        psp = FlickrPSP()
        photo_id = psp.upload(photo_bytes, owner="alice")
        served = psp.download(photo_id, "alice", resolution=64)
        info = image_info(served)
        assert max(info.width, info.height) == 64

    def test_dynamic_crop(self, photo_bytes):
        psp = FacebookPSP()
        photo_id = psp.upload(photo_bytes, owner="alice")
        served = psp.download(
            photo_id, "alice", resolution=128, crop_box=(8, 8, 64, 48)
        )
        info = image_info(served)
        assert (info.height, info.width) == (64, 48)

    def test_bandwidth_accounting(self, photo_bytes):
        psp = FacebookPSP()
        photo_id = psp.upload(photo_bytes, owner="alice")
        before = psp.bytes_served
        psp.download(photo_id, "alice", resolution=75)
        assert psp.bytes_served > before


class TestAdversarialAnalysis:
    def test_run_analysis_sees_all_photos(self, photo_bytes):
        psp = FacebookPSP()
        a = psp.upload(photo_bytes, owner="alice")
        b = psp.upload(photo_bytes, owner="bob")
        results = psp.run_analysis(lambda pixels: pixels.shape, resolution=75)
        assert set(results) == {a, b}

    def test_run_analysis_rejects_unstored_resolution(self, photo_bytes):
        """resolution=0 is an error, not a silent largest-variant fallback."""
        psp = FacebookPSP()
        psp.upload(photo_bytes, owner="alice")
        with pytest.raises(KeyError, match="no stored variant 0"):
            psp.run_analysis(lambda pixels: None, resolution=0)
        with pytest.raises(KeyError, match="available"):
            psp.run_analysis(lambda pixels: None, resolution=333)
