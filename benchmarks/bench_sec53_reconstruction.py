"""Section 5.3: reconstruction accuracy.

Paper results: with transformations known a priori, reconstruction
reaches ~49.2 dB (practically lossless); reverse-engineering the
black-box pipelines yields 34.4 dB (Facebook) and 39.8 dB (Flickr).
"""

import numpy as np
from conftest import run_once

from repro.analysis.report import Table, format_table
from repro.api.session import P3Session
from repro.core import P3Config, P3Decryptor, P3Encryptor
from repro.jpeg.codec import decode, encode_gray, encode_rgb
from repro.system.psp import FacebookPSP, FlickrPSP
from repro.system.reverse import reverse_engineer
from repro.system.storage import CloudStorage
from repro.crypto.keyring import Keyring
from repro.transforms.resize import Resize
from repro.vision.kernels import to_luma
from repro.vision.metrics import psnr


def _known_transform_psnr(corpus, album_key=b"k" * 16):
    """Resize with a known operator; measure reconstruction PSNR."""
    values = []
    for image in corpus:
        gray = to_luma(image)
        config = P3Config(threshold=15, quality=88)
        photo = P3Encryptor(album_key, config).encrypt_pixels(gray)
        operator = Resize(
            image.shape[0] // 2, image.shape[1] // 2, "bilinear"
        )
        served = np.clip(operator(decode(photo.public_jpeg)), 0, 255)
        served_jpeg = encode_gray(served, quality=95)
        reconstructed = P3Decryptor(album_key).decrypt(
            served_jpeg, photo.secret_envelope, operator=operator
        )
        target = operator(decode(encode_gray(gray, quality=88)))
        values.append(psnr(target, reconstructed))
    return float(np.mean(values))


def _blackbox_psnr(psp_class, corpus, resolution):
    """Upload through a session, reverse engineer, reconstruct."""
    psp = psp_class()

    # Calibration against a scratch instance of the same provider.
    calibration_psp = psp_class()
    originals = []
    serveds = []
    for image in corpus[:2]:
        jpeg = encode_rgb(image, quality=88)
        pid = calibration_psp.upload(jpeg, owner="cal")
        served = decode(
            calibration_psp.download(pid, "cal", resolution=resolution)
        )
        originals.append(to_luma(decode(jpeg)))
        serveds.append(to_luma(served))
    estimate = reverse_engineer(originals, serveds)

    session = P3Session(
        Keyring("alice"),
        psp,
        CloudStorage(),
        P3Config(threshold=15, quality=88),
        transform_estimate=estimate,
    )
    values = []
    for image in corpus:
        jpeg = encode_rgb(image, quality=88)
        record = session.upload(jpeg, album="album")
        reconstructed = session.download(
            record.photo_id, "album", resolution=resolution
        )
        # Reference: the same PSP serving a plain (non-P3) upload.
        reference_psp = psp_class()
        ref_id = reference_psp.upload(jpeg, owner="x")
        reference = decode(
            reference_psp.download(ref_id, "x", resolution=resolution)
        )
        values.append(psnr(to_luma(reference), to_luma(reconstructed)))
    return float(np.mean(values)), estimate


def test_sec53_reconstruction_accuracy(benchmark, usc_corpus):
    corpus = usc_corpus[:3]

    def experiment():
        known = _known_transform_psnr(corpus)
        facebook, facebook_estimate = _blackbox_psnr(
            FacebookPSP, corpus, resolution=130
        )
        flickr, flickr_estimate = _blackbox_psnr(
            FlickrPSP, corpus, resolution=100
        )
        return known, facebook, flickr, facebook_estimate, flickr_estimate

    known, facebook, flickr, fb_est, fl_est = run_once(benchmark, experiment)
    table = Table(title="Section 5.3: reconstruction accuracy", x_label="row")
    table.add("PSNR_dB", [1, 2, 3], [known, facebook, flickr])
    print()
    print(format_table(table))
    print("rows: 1=known transforms, 2=Facebook black-box, 3=Flickr black-box")
    print(f"Facebook pipeline estimate: {fb_est}")
    print(f"Flickr pipeline estimate:   {fl_est}")

    # Shape of the paper's result: known >= both black-box cases, and
    # everything stays in the perceptually-good band.
    assert known > 38.0
    assert facebook > 25.0
    assert flickr > 25.0
    assert known >= facebook - 1.0
    assert known >= flickr - 1.0
