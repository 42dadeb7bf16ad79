"""Tests for the unmodified app talking to its device's trusted proxy.

Each user runs the paper's one-device deployment: a
:class:`~repro.system.gateway.P3Gateway` with one registered user, in
front of a shared PSP and cloud storage.
"""

import pytest

from repro.api.session import P3Session
from repro.core.config import P3Config
from repro.crypto.keyring import Keyring
from repro.jpeg.codec import decode, encode_rgb
from repro.serve.engine import ServingEngine
from repro.serve.keys import secret_blob_key
from repro.system.client import PhotoSharingClient
from repro.system.gateway import P3Gateway
from repro.system.psp import FacebookPSP
from repro.system.storage import CloudStorage
from repro.vision.kernels import to_luma
from repro.vision.metrics import psnr


def device(keys, psp, storage, config=None, engine=None):
    """One user's app behind their own one-user gateway."""
    gateway = P3Gateway(psp, storage, config, engine=engine)
    gateway.add_user(keys.owner, keys)
    return PhotoSharingClient(keys.owner, gateway)


def cached_secret_ids(client):
    """Photo IDs in the device's decrypted secret-part tier."""
    return {key[1] for key in client.gateway.engine.secret_cache.keys()}


@pytest.fixture()
def world(scene_corpus):
    """A sender (alice), a recipient (bob), a PSP and cloud storage."""
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
    return alice, bob, psp, storage, jpeg


def with_secret_cache_limit(client, limit):
    """The same user on a device whose secret-part tier holds ``limit``
    entries and whose variant tier is off, so every view reaches it."""
    gateway = client.gateway
    return device(
        gateway.keyring_for(client.user),
        gateway.psp,
        gateway.storage,
        engine=ServingEngine(
            gateway.psp,
            gateway.storage,
            P3Config(secret_cache=limit, variant_cache=0),
        ),
    )


class TestUploadPath:
    def test_receipt_fields(self, world):
        alice, _, psp, storage, jpeg = world
        receipt = alice.upload_photo(jpeg, "trip", viewers={"bob"})
        assert receipt.public_bytes > 0
        assert receipt.secret_bytes > 0
        assert storage.exists(secret_blob_key("trip", receipt.photo_id))

    def test_psp_never_sees_original(self, world):
        """What crosses the PSP trust boundary is only the public part."""
        alice, _, psp, _, jpeg = world
        receipt = alice.upload_photo(jpeg, "trip", viewers={"bob"})
        stored = psp.stored_variant(receipt.photo_id, 720)
        original = to_luma(decode(jpeg))
        public_view = to_luma(decode(stored))
        # Paper Figure 6: public parts are degraded to ~10-20 dB.
        assert psnr(original, public_view) < 25.0

    def test_storage_only_sees_ciphertext(self, world):
        alice, _, _, storage, jpeg = world
        receipt = alice.upload_photo(jpeg, "trip")
        blob = storage.snoop(secret_blob_key("trip", receipt.photo_id))
        assert blob[:4] == b"P3E1"  # envelope, not JPEG
        assert b"\xff\xd8" != blob[:2]

    def test_request_log_records_app_level_http(self, world):
        alice, _, _, _, jpeg = world
        alice.upload_photo(jpeg, "trip")
        assert alice.request_log[-1].method == "POST"
        assert "facebook" in alice.request_log[-1].host


class TestDownloadPath:
    def test_full_resolution_roundtrip(self, world):
        alice, bob, psp, _, jpeg = world
        receipt = alice.upload_photo(jpeg, "trip", viewers={"bob"})
        reconstructed = bob.view_photo(receipt.photo_id, "trip", resolution=720)
        # Reference: the same PSP pipeline applied to a plain upload.
        reference_psp = FacebookPSP()
        ref_id = reference_psp.upload(jpeg, owner="x")
        reference = decode(reference_psp.download(ref_id, "x", resolution=720))
        value = psnr(to_luma(reference), to_luma(reconstructed))
        assert value > 30.0

    def test_reconstruction_beats_public_only(self, world):
        alice, bob, psp, _, jpeg = world
        receipt = alice.upload_photo(jpeg, "trip", viewers={"bob"})
        reference_psp = FacebookPSP()
        ref_id = reference_psp.upload(jpeg, owner="x")
        reference = to_luma(
            decode(reference_psp.download(ref_id, "x", resolution=720))
        )
        with_key = to_luma(
            bob.view_photo(receipt.photo_id, "trip", resolution=720)
        )
        without_key = to_luma(
            bob.view_photo_without_key(receipt.photo_id, resolution=720)
        )
        assert psnr(reference, with_key) > psnr(reference, without_key) + 10

    def test_secret_cache_reused_across_resolutions(self, world):
        alice, bob, _, storage, jpeg = world
        receipt = alice.upload_photo(jpeg, "trip", viewers={"bob"})
        before = storage.get_count
        bob.view_photo(receipt.photo_id, "trip", resolution=75)
        bob.view_photo(receipt.photo_id, "trip", resolution=130)
        bob.view_photo(receipt.photo_id, "trip", resolution=720)
        assert storage.get_count == before + 1  # one secret fetch only
        assert bob.gateway.engine.secret_cache.stats.count("hits") == 2

    def test_stranger_cannot_download(self, world):
        alice, _, psp, storage, jpeg = world
        receipt = alice.upload_photo(jpeg, "trip")  # no viewers
        mallory = device(Keyring("mallory"), psp, storage)
        with pytest.raises(RuntimeError, match="403"):
            mallory.view_photo(receipt.photo_id, "trip")

    def test_viewer_without_key_sees_degraded(self, world):
        """Access to the PSP but no album key (the Figure 4 scenario)."""
        alice, bob, psp, storage, jpeg = world
        receipt = alice.upload_photo(jpeg, "trip", viewers={"carol", "bob"})
        carol = device(Keyring("carol"), psp, storage)  # never given the key
        degraded = carol.view_photo_without_key(
            receipt.photo_id, resolution=720
        )
        original = decode(jpeg)
        assert psnr(to_luma(original), to_luma(degraded)) < 25.0

    def test_cropped_download(self, world):
        alice, bob, _, _, jpeg = world
        receipt = alice.upload_photo(jpeg, "trip", viewers={"bob"})
        cropped = bob.view_photo(
            receipt.photo_id, "trip", resolution=128, crop_box=(8, 8, 64, 64)
        )
        assert cropped.shape[:2] == (64, 64)


class TestSecretCacheBound:
    def test_cache_is_lru_bounded(self, world):
        """Corpus-scale traffic must not grow the cache without bound."""
        alice, bob, psp, storage, jpeg = world
        bob = with_secret_cache_limit(bob, 2)
        stats = bob.gateway.engine.secret_cache.stats
        receipts = [
            alice.upload_photo(jpeg, "trip", viewers={"bob"})
            for _ in range(3)
        ]
        for receipt in receipts:
            bob.view_photo(receipt.photo_id, "trip", resolution=75)
        assert len(bob.gateway.engine.secret_cache) == 2
        assert stats.count("evictions") == 1
        # The oldest entry (receipts[0]) was evicted; re-viewing it is a miss.
        before = stats.count("misses")
        bob.view_photo(receipts[0].photo_id, "trip", resolution=75)
        assert stats.count("misses") == before + 1

    def test_hit_refreshes_recency(self, world):
        alice, bob, _, _, jpeg = world
        bob = with_secret_cache_limit(bob, 2)
        receipts = [
            alice.upload_photo(jpeg, "trip", viewers={"bob"})
            for _ in range(2)
        ]
        bob.view_photo(receipts[0].photo_id, "trip", resolution=75)
        bob.view_photo(receipts[1].photo_id, "trip", resolution=75)
        bob.view_photo(receipts[0].photo_id, "trip", resolution=75)  # refresh
        third = alice.upload_photo(jpeg, "trip", viewers={"bob"})
        bob.view_photo(third.photo_id, "trip", resolution=75)  # evicts [1]
        assert receipts[0].photo_id in cached_secret_ids(bob)
        assert receipts[1].photo_id not in cached_secret_ids(bob)

    def test_default_limit(self, world):
        _, bob, psp, storage, _ = world
        session = P3Session(bob.gateway.keyring_for("bob"), psp, storage)
        assert P3Config().secret_cache == 128
        assert bob.gateway.engine.secret_cache.maxsize == 128
        assert session.engine.secret_cache.maxsize == 128


class TestSecretBlobKey:
    def test_plain_names_unchanged(self):
        """The seed's key layout survives for well-behaved IDs."""
        assert secret_blob_key("trip", "abc123") == "p3/trip/abc123.secret"

    @pytest.mark.parametrize(
        "pair_a, pair_b",
        [
            (("a/b", "c"), ("a", "b/c")),  # slash shifts the album boundary
            (("a", "b.secret"), ("a", "b%2Esecret")),  # suffix forgery
            (("a.b", "c"), ("a", "b.c")),  # dot shifts across components
            (("..", "x"), ("%2E%2E", "x")),  # path traversal lookalikes
        ],
    )
    def test_adversarial_ids_cannot_collide(self, pair_a, pair_b):
        assert secret_blob_key(*pair_a) != secret_blob_key(*pair_b)

    @pytest.mark.parametrize(
        "album, photo_id",
        [("a/b", "c/d"), ("a.b", "x.secret"), ("..", ".."), ("%", "%2F")],
    )
    def test_encoded_keys_stay_in_the_p3_namespace(self, album, photo_id):
        key = secret_blob_key(album, photo_id)
        assert key.startswith("p3/")
        assert key.endswith(".secret")
        assert key.count("/") == 2  # components cannot add path levels
        assert ".." not in key

    def test_roundtrip_through_storage(self, world):
        """An upload to a hostile album name still round-trips."""
        alice, bob, _, storage, jpeg = world
        alice_keys = alice.gateway.keyring_for("alice")
        alice_keys.create_album("evil/../album")
        alice_keys.share_with(
            bob.gateway.keyring_for("bob"), "evil/../album"
        )
        receipt = alice.upload_photo(
            jpeg, "evil/../album", viewers={"bob"}
        )
        pixels = bob.view_photo(
            receipt.photo_id, "evil/../album", resolution=75
        )
        assert pixels.ndim == 3
