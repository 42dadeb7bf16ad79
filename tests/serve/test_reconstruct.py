"""Tests for the single reconstruction core, ``reconstruct_served``.

Every download path — the serving engine, the batch pipeline's
``run_decrypt_task`` and ``P3Decryptor`` — ends here, so its verdicts
are the recipient side's verdicts.
"""

import numpy as np
import pytest

import repro.core.reconstruction
import repro.jpeg.decoder
import repro.serve.reconstruct
from repro.api.pipeline import DecryptTask, run_decrypt_task
from repro.core import P3Config, P3Decryptor, P3Encryptor
from repro.jpeg.codec import decode, decode_coefficients, encode_rgb
from repro.serve.reconstruct import reconstruct_served


@pytest.fixture()
def photos(gray_image, album_key):
    """One 128px photo encrypted twice: as gray (1 component) and as
    RGB (3 components)."""
    rgb = np.stack(
        [gray_image, gray_image * 0.8, 255.0 - gray_image], axis=-1
    ).astype(np.uint8)
    encryptor = P3Encryptor(album_key, P3Config(threshold=15))
    return {
        "gray": encryptor.encrypt_pixels(gray_image),
        "rgb": encryptor.encrypt_pixels(rgb),
    }


@pytest.mark.parametrize(
    "public_from, secret_from", [("gray", "rgb"), ("rgb", "gray")]
)
class TestColorLayoutMismatch:
    """A public part and a secret part with different component counts
    cannot be one photo; every path must refuse rather than render a
    luma-only guess."""

    def test_reconstruct_served_rejects(
        self, photos, album_key, public_from, secret_from
    ):
        secret_part = P3Decryptor(album_key).open_secret(
            photos[secret_from].secret_envelope
        )
        with pytest.raises(ValueError, match="disagree on color layout"):
            reconstruct_served(
                photos[public_from].public_jpeg, secret_part
            )

    def test_run_decrypt_task_rejects(
        self, photos, album_key, public_from, secret_from
    ):
        task = DecryptTask(
            key=album_key,
            public_jpeg=photos[public_from].public_jpeg,
            secret_envelope=photos[secret_from].secret_envelope,
        )
        with pytest.raises(ValueError, match="disagree on color layout"):
            run_decrypt_task(task)

    def test_decryptor_rejects(
        self, photos, album_key, public_from, secret_from
    ):
        with pytest.raises(ValueError, match="disagree on color layout"):
            P3Decryptor(album_key).decrypt(
                photos[public_from].public_jpeg,
                photos[secret_from].secret_envelope,
            )


def test_without_secret_part_decodes_public_only(photos):
    public_jpeg = photos["rgb"].public_jpeg
    np.testing.assert_array_equal(
        reconstruct_served(public_jpeg, None), decode(public_jpeg)
    )


def test_full_size_eq2_renders_two_images(photos, album_key, monkeypatch):
    """A same-size Eq. 2 view costs one IDCT pass per image: the served
    public part and the secret-side difference, not a third pass for the
    sign correction, and no coefficient-domain recombine."""
    public_jpeg = photos["rgb"].public_jpeg
    # The provider re-encoded the public part at another quality, so the
    # tables differ and Eq. 1 does not apply.
    served = encode_rgb(decode(public_jpeg), quality=70)
    secret_part = P3Decryptor(album_key).open_secret(
        photos["rgb"].secret_envelope
    )
    image_blocks = sum(
        c.coefficients.size // 64 for c in secret_part.image.components
    )
    assert image_blocks == sum(
        c.coefficients.size // 64
        for c in decode_coefficients(served).components
    )
    blocks = []
    real_inverse_dct = repro.jpeg.decoder.inverse_dct

    def counting_inverse_dct(coefficients, *args, **kwargs):
        blocks.append(coefficients.size // 64)
        return real_inverse_dct(coefficients, *args, **kwargs)

    def no_recombine(*args, **kwargs):
        raise AssertionError("recombine called on an Eq. 2 view")

    monkeypatch.setattr(repro.jpeg.decoder, "inverse_dct", counting_inverse_dct)
    monkeypatch.setattr(repro.serve.reconstruct, "recombine", no_recombine)
    monkeypatch.setattr(repro.core.reconstruction, "recombine", no_recombine)
    pixels = reconstruct_served(served, secret_part)
    assert pixels.shape == (128, 128, 3)
    assert sum(blocks) == 2 * image_blocks
