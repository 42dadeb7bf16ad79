"""End-to-end tests of the sender/recipient operations."""

import numpy as np
import pytest

from repro.core import P3Config, P3Decryptor, P3Encryptor
from repro.core.serialization import (
    SecretFormatError,
    deserialize_secret,
    serialize_secret,
)
from repro.core.splitting import split_image
from repro.crypto.envelope import EnvelopeError
from repro.jpeg.codec import decode, decode_coefficients, encode_gray, encode_rgb
from repro.vision.metrics import psnr


class TestConfig:
    def test_defaults_in_recommended_range(self):
        assert P3Config().in_recommended_range

    @pytest.mark.parametrize("threshold", [0, -3, 5000])
    def test_bad_threshold(self, threshold):
        with pytest.raises(ValueError):
            P3Config(threshold=threshold)

    def test_bad_quality(self):
        with pytest.raises(ValueError):
            P3Config(quality=0)

    def test_bad_subsampling(self):
        with pytest.raises(ValueError):
            P3Config(subsampling="4:4:0")

    def test_async_executor_kind_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            P3Config(executor="async")
        with pytest.raises(ValueError, match="ingest_executor"):
            P3Config(ingest_executor="async")

    def test_serving_tier_knobs_validated(self):
        for tier in ("variant_cache", "secret_cache", "envelope_cache"):
            with pytest.raises(ValueError, match=tier):
                P3Config(**{tier: -1})
        with pytest.raises(ValueError, match="variant_ttl_s"):
            P3Config(variant_ttl_s=-1.0)
        for bad_quota in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="cache_partition_quota"):
                P3Config(cache_partition_quota=bad_quota)
        config = P3Config(envelope_cache=0, cache_partition_quota=1.0)
        assert (config.envelope_cache, config.cache_partition_quota) == (0, 1.0)


class TestSerialization:
    def test_roundtrip(self, gray_image):
        image = decode_coefficients(encode_gray(gray_image, quality=85))
        split = split_image(image, 15)
        container = serialize_secret(split.secret, 15)
        part = deserialize_secret(container)
        assert part.threshold == 15
        assert (part.width, part.height) == (image.width, image.height)
        assert np.array_equal(
            part.image.luma.coefficients, split.secret.luma.coefficients
        )

    def test_bad_magic(self, gray_image):
        image = decode_coefficients(encode_gray(gray_image, quality=85))
        split = split_image(image, 15)
        container = bytearray(serialize_secret(split.secret, 15))
        container[0] ^= 0xFF
        with pytest.raises(SecretFormatError):
            deserialize_secret(bytes(container))

    def test_truncated_payload(self, gray_image):
        image = decode_coefficients(encode_gray(gray_image, quality=85))
        split = split_image(image, 15)
        container = serialize_secret(split.secret, 15)
        with pytest.raises(SecretFormatError):
            deserialize_secret(container[:-10])

    def test_threshold_range_checked(self, gray_image):
        image = decode_coefficients(encode_gray(gray_image, quality=85))
        split = split_image(image, 15)
        with pytest.raises(SecretFormatError):
            serialize_secret(split.secret, 0)


class TestEndToEnd:
    def test_gray_lossless_vs_plain_jpeg(self, gray_image, album_key):
        config = P3Config(threshold=15, quality=88)
        encryptor = P3Encryptor(album_key, config)
        photo = encryptor.encrypt_pixels(gray_image)
        decryptor = P3Decryptor(album_key)
        reconstructed = decryptor.decrypt(
            photo.public_jpeg, photo.secret_envelope
        )
        plain = decode(encode_gray(gray_image, quality=88))
        assert np.array_equal(reconstructed, plain)

    def test_color_lossless_vs_plain_jpeg(self, rgb_image, album_key):
        config = P3Config(threshold=10, quality=90)
        encryptor = P3Encryptor(album_key, config)
        photo = encryptor.encrypt_pixels(rgb_image)
        reconstructed = P3Decryptor(album_key).decrypt(
            photo.public_jpeg, photo.secret_envelope
        )
        plain = decode(encode_rgb(rgb_image, quality=90))
        assert np.array_equal(reconstructed, plain)

    def test_jpeg_transcode_path(self, gray_image, album_key):
        jpeg = encode_gray(gray_image, quality=85)
        encryptor = P3Encryptor(album_key, P3Config(threshold=20))
        photo = encryptor.encrypt_jpeg(jpeg)
        reconstructed = P3Decryptor(album_key).decrypt(
            photo.public_jpeg, photo.secret_envelope
        )
        assert np.array_equal(reconstructed, decode(jpeg))

    def test_wrong_key_fails(self, gray_image, album_key):
        photo = P3Encryptor(album_key).encrypt_pixels(gray_image)
        with pytest.raises(EnvelopeError):
            P3Decryptor(b"\x01" * 16).decrypt(
                photo.public_jpeg, photo.secret_envelope
            )

    def test_public_part_is_valid_degraded_jpeg(self, gray_image, album_key):
        photo = P3Encryptor(album_key, P3Config(threshold=15)).encrypt_pixels(
            gray_image
        )
        public_pixels = decode(photo.public_jpeg)
        plain = decode(encode_gray(gray_image, quality=85))
        # The paper's Figure 6: public part sits around 10-20 dB.
        assert psnr(plain, public_pixels) < 25.0

    def test_bad_pixel_shape_rejected(self, album_key):
        with pytest.raises(ValueError):
            P3Encryptor(album_key).encrypt_pixels(np.zeros((4, 4, 2)))

    def test_decrypt_resized_public(self, gray_image, album_key):
        from repro.transforms.resize import Resize

        config = P3Config(threshold=15, quality=88)
        photo = P3Encryptor(album_key, config).encrypt_pixels(gray_image)
        operator = Resize(64, 64, "bilinear")
        public_plane = decode(photo.public_jpeg)
        served = np.clip(operator(public_plane), 0, 255)
        served_jpeg = encode_gray(served, quality=95)
        reconstructed = P3Decryptor(album_key).decrypt(
            served_jpeg, photo.secret_envelope, operator=operator
        )
        plain = decode(encode_gray(gray_image, quality=88))
        target = operator(plain)
        assert psnr(target, reconstructed) > 40.0

    def test_storage_overhead_modest(self, gray_image, album_key):
        """Figure 5: total storage ~ 1.0-1.3x the original at T>=10."""
        original = len(encode_gray(gray_image, quality=88))
        photo = P3Encryptor(
            album_key, P3Config(threshold=15, quality=88)
        ).encrypt_pixels(gray_image)
        total = photo.public_size + photo.secret_size
        assert total < 1.5 * original
