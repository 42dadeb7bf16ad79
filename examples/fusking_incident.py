"""Scenario: the PhotoBucket 'fusking' leak, with and without P3.

The paper's first threat (Section 2.2): PSPs with guessable photo URLs
leak photos to anyone who enumerates them.  This example reproduces
the incident against the PhotoBucket-like PSP (sequential IDs, no
download access control) and shows what the attacker obtains when the
victim uses plain uploads versus P3.

    python examples/fusking_incident.py
"""

from __future__ import annotations

from repro.api.session import P3Session
from repro.core.config import P3Config
from repro.crypto.keyring import Keyring
from repro.datasets import caltech_faces_like
from repro.jpeg.codec import decode, encode_rgb
from repro.system.psp import PhotoBucketPSP
from repro.system.storage import CloudStorage
from repro.vision.facedetect import train_default_detector
from repro.vision.kernels import to_luma
from repro.vision.metrics import psnr


def main() -> None:
    victim_photo = caltech_faces_like(count=1, subjects=1, size=128)[0].image
    jpeg = encode_rgb(victim_photo, quality=88)
    detector = train_default_detector()

    # --- without P3 ------------------------------------------------------
    plain_psp = PhotoBucketPSP()
    plain_psp.upload(jpeg, owner="victim")
    # The attacker never authenticates; they just try sequential URLs.
    leaked = plain_psp.download("img000001", "attacker")
    leaked_pixels = decode(leaked)
    print("WITHOUT P3:")
    print(
        f"  attacker fetched img000001, "
        f"{psnr(to_luma(decode(jpeg)), to_luma(leaked_pixels)):.1f} dB vs "
        "the original (essentially the photo)"
    )
    print(
        f"  attacker's face detector finds "
        f"{detector.count_faces(leaked_pixels)} face(s)"
    )

    # --- with P3 ---------------------------------------------------------
    p3_psp = PhotoBucketPSP()
    session = P3Session(
        Keyring("victim"),
        p3_psp,
        CloudStorage(),
        P3Config(threshold=15, quality=88),
    )
    session.upload(jpeg, album="private")
    leaked_public = p3_psp.download("img000001", "attacker")
    leaked_public_pixels = decode(leaked_public)
    print("WITH P3:")
    print(
        f"  attacker fetched img000001, "
        f"{psnr(to_luma(decode(jpeg)), to_luma(leaked_public_pixels)):.1f} dB "
        "vs the original (the degraded public part)"
    )
    print(
        f"  attacker's face detector finds "
        f"{detector.count_faces(leaked_public_pixels)} face(s)"
    )
    print(
        "\nthe secret part sits AES-encrypted at a different provider under "
        "a key the attacker does not have; the guessable URL leaks only "
        "the public part."
    )


if __name__ == "__main__":
    main()
