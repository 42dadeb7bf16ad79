"""Scenario: transparent photo sharing through a Facebook-like PSP.

Reproduces the paper's Figure 3/4 workflow end to end:

* Alice's phone uploads a vacation photo; her local proxy (a gateway
  with one user) transparently splits it, sends the public part to the
  PSP and stashes the encrypted secret part with a cloud storage
  provider.
* Bob (who has the album key) browses the album: thumbnail first, then
  the full-size photo — and his proxy reconstructs both, fetching the
  secret part only once.
* Carol can see the photo on the PSP but has no key: she gets the
  degraded public part (the right-hand screenshot of Figure 4).
* The PSP runs its face-recognition pipeline over everything it stores
  and learns nothing from Alice's photo.

    python examples/facebook_sharing.py
"""

from __future__ import annotations

from repro.core.config import P3Config
from repro.crypto.keyring import Keyring
from repro.datasets import caltech_faces_like
from repro.jpeg.codec import decode, encode_rgb
from repro.system.client import PhotoSharingClient
from repro.system.gateway import P3Gateway
from repro.system.psp import FacebookPSP
from repro.system.storage import CloudStorage
from repro.vision.facedetect import train_default_detector
from repro.vision.kernels import to_luma
from repro.vision.metrics import psnr


def main() -> None:
    # --- the world -----------------------------------------------------
    psp = FacebookPSP()
    dropbox = CloudStorage("dropbox")

    def phone(keys: Keyring, config: P3Config | None = None):
        """An unmodified app behind its device's one-user proxy."""
        proxy = P3Gateway(psp, dropbox, config)
        proxy.add_user(keys.owner, keys)
        return PhotoSharingClient(keys.owner, proxy)

    alice_keys = Keyring("alice")
    alice_keys.create_album("vacation-2013")
    bob_keys = Keyring("bob")
    alice_keys.share_with(bob_keys, "vacation-2013")  # out of band
    carol_keys = Keyring("carol")  # carol never receives the key

    alice = phone(alice_keys, P3Config(threshold=15, quality=88))
    bob = phone(bob_keys)
    carol = phone(carol_keys)

    # --- Alice uploads a photo with a face in it ------------------------
    photo = caltech_faces_like(count=1, subjects=1, size=128)[0].image
    jpeg = encode_rgb(photo, quality=88)
    receipt = alice.upload_photo(jpeg, "vacation-2013", viewers={"bob", "carol"})
    print(
        f"alice uploaded photo {receipt.photo_id}: public "
        f"{receipt.public_bytes} B to facebook, secret "
        f"{receipt.secret_bytes} B to dropbox"
    )

    # --- Bob browses: thumbnail, then full size -------------------------
    thumbnail = bob.view_photo(receipt.photo_id, "vacation-2013", resolution=75)
    full = bob.view_photo(receipt.photo_id, "vacation-2013", resolution=720)
    stats = bob.gateway.engine.secret_cache.snapshot()
    print(
        f"bob viewed {thumbnail.shape[1]}x{thumbnail.shape[0]} thumb and "
        f"{full.shape[1]}x{full.shape[0]} photo; secret fetched "
        f"{stats['misses']} time(s), cache hits {stats['hits']}"
    )
    original = decode(jpeg)
    print(
        "bob's full-size view PSNR vs original: "
        f"{psnr(to_luma(original), to_luma(full)):.1f} dB"
    )

    # --- Carol has no key: Figure 4's right-hand screenshot -------------
    degraded = carol.view_photo_without_key(receipt.photo_id, resolution=720)
    print(
        "carol (no key) sees PSNR "
        f"{psnr(to_luma(original), to_luma(degraded)):.1f} dB "
        "(the public part only)"
    )

    # --- the PSP plays adversary: face detection on stored photos -------
    detector = train_default_detector()
    found = psp.run_analysis(
        lambda pixels: detector.count_faces(pixels), resolution=720
    )
    print(
        f"facebook's face detector finds {found[receipt.photo_id]} face(s) "
        "in Alice's stored (public) photo"
    )
    print(
        "face detector on the original finds "
        f"{detector.count_faces(photo)} face(s)"
    )


if __name__ == "__main__":
    main()
