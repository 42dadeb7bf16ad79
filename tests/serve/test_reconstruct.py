"""Tests for the single reconstruction core, ``reconstruct_served``.

Every download path — the serving engine, the batch pipeline's
``run_decrypt_task`` and ``P3Decryptor`` — ends here, so its verdicts
are the recipient side's verdicts.
"""

import numpy as np
import pytest

from repro.api.pipeline import DecryptTask, run_decrypt_task
from repro.core import P3Config, P3Decryptor, P3Encryptor
from repro.jpeg.codec import decode
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
