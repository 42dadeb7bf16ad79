"""The trusted local proxies (paper Section 4.1, Figure 3).

``SenderProxy`` interposes on uploads: it splits the outgoing JPEG,
sends the public part to the PSP, and stores the encrypted secret part
with the storage provider under the photo ID the PSP returned.

``RecipientProxy`` interposes on downloads.  Since the serving-tier
refactor it is a thin per-user front over a
:class:`~repro.serve.engine.ServingEngine` — the engine owns the
three-tier cache (decoded variants, secret parts, raw envelopes),
partitioned per-tenant eviction, single-flight
coalescing and the single reconstruction path, and may be *shared*
between many proxies (see :class:`~repro.system.gateway.P3Gateway`);
a proxy constructed bare simply owns a private engine, preserving the
paper's one-user-one-proxy story.

Both proxies run on the client device, inside the trust boundary.  They
are written against the :class:`~repro.api.backends.PSPBackend` and
:class:`~repro.api.backends.BlobStore` protocols, so any conforming
backend — not just the built-in simulators — can sit on the far side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.backends import BlobStore, PSPBackend, best_effort_delete
from repro.core.config import P3Config
from repro.core.encryptor import EncryptedPhoto, P3Encryptor
from repro.crypto.keyring import Keyring
from repro.serve.engine import (
    DEFAULT_SECRET_CACHE_LIMIT,
    ServeRequest,
    ServingEngine,
)
from repro.serve.keys import secret_blob_key  # noqa: F401  (re-export:
# the historical home of the key layout; serve/ owns it now)
from repro.serve.reconstruct import (  # noqa: F401  (re-export: the
    # reconstruction core moved to the serving tier; older callers
    # keep importing it from here)
    build_served_operator,
    reconstruct_served,
)
from repro.system.reverse import TransformEstimate

__all__ = [
    "DEFAULT_SECRET_CACHE_LIMIT",
    "UploadReceipt",
    "publish_encrypted",
    "SenderProxy",
    "RecipientProxy",
    "secret_blob_key",
    "build_served_operator",
    "reconstruct_served",
]


@dataclass
class UploadReceipt:
    """What the sender proxy reports back after an interposed upload."""

    photo_id: str
    public_bytes: int
    secret_bytes: int


def publish_encrypted(
    psp: PSPBackend,
    storage: BlobStore,
    photo: EncryptedPhoto,
    album: str,
    owner: str,
    viewers: set[str] | None = None,
) -> UploadReceipt:
    """Publish a split photo: public part to the PSP, secret to storage.

    The two writes are kept consistent: if the secret-part put fails,
    the just-uploaded public part is deleted from the PSP again
    (best-effort — the protocol's ``delete`` is optional) before the
    error propagates, so a failed publish never strands a public part
    whose secret half exists nowhere.  This is the single publish path
    for the sender proxy, the session batch pipeline and the gateway.
    """
    photo_id = psp.upload(
        photo.public_jpeg, owner=owner, viewers=viewers
    )
    try:
        storage.put(
            secret_blob_key(album, photo_id), photo.secret_envelope
        )
    except Exception:
        best_effort_delete(psp, photo_id)
        raise
    return UploadReceipt(
        photo_id=photo_id,
        public_bytes=photo.public_size,
        secret_bytes=photo.secret_size,
    )


class SenderProxy:
    """Trusted sender-side middlebox."""

    def __init__(
        self,
        keyring: Keyring,
        psp: PSPBackend,
        storage: BlobStore,
        config: P3Config | None = None,
    ) -> None:
        self.keyring = keyring
        self.psp = psp
        self.storage = storage
        self.config = config or P3Config()

    def upload(
        self,
        jpeg_bytes: bytes,
        album: str,
        viewers: set[str] | None = None,
    ) -> UploadReceipt:
        """Interpose on a photo upload: split, upload, stash secret."""
        encryptor = P3Encryptor(self.keyring.key_for(album), self.config)
        photo = encryptor.encrypt_jpeg(jpeg_bytes)
        return publish_encrypted(
            self.psp, self.storage, photo, album, self.keyring.owner, viewers
        )

    def upload_pixels(
        self,
        pixels: np.ndarray,
        album: str,
        viewers: set[str] | None = None,
    ) -> UploadReceipt:
        """Upload a photo straight from the camera sensor (raw pixels)."""
        encryptor = P3Encryptor(self.keyring.key_for(album), self.config)
        photo = encryptor.encrypt_pixels(pixels)
        return publish_encrypted(
            self.psp, self.storage, photo, album, self.keyring.owner, viewers
        )


class _SecretCacheView:
    """Photo-ID view of the engine's (album, id, key)-keyed tier-2 cache.

    Historical callers (and tests) reason about the recipient proxy's
    secret cache by photo ID alone; the shared engine keys by
    ``(album, photo_id, key-digest)`` so tenants cannot collide.  This
    read-only view bridges the two.
    """

    def __init__(self, engine: ServingEngine) -> None:
        self._engine = engine

    def __len__(self) -> int:
        return len(self._engine.secret_cache)

    def __contains__(self, photo_id: str) -> bool:
        return any(
            key[1] == photo_id for key in self._engine.secret_cache.keys()
        )


class RecipientProxy:
    """Trusted recipient-side middlebox over a serving engine."""

    def __init__(
        self,
        keyring: Keyring,
        psp: PSPBackend,
        storage: BlobStore,
        transform_estimate: TransformEstimate | None = None,
        cache_limit: int | None = DEFAULT_SECRET_CACHE_LIMIT,
        engine: ServingEngine | None = None,
    ) -> None:
        if cache_limit is not None and cache_limit < 1:
            raise ValueError(f"cache_limit must be >= 1, got {cache_limit}")
        if engine is None:
            # A bare proxy is the paper's one-user-one-device deploy:
            # it keeps the secret-part cache but not the decoded-
            # variant tier (the app in front of it caches rendered
            # images itself).  Serving-tier deployments pass a shared,
            # config-built engine where every tier is on.
            engine = ServingEngine(
                psp,
                storage,
                transform_estimate=transform_estimate,
                secret_cache_limit=cache_limit,
                variant_cache_limit=0,
            )
        elif (
            transform_estimate is not None
            and engine.transform_estimate is not transform_estimate
        ):
            raise ValueError(
                "a shared engine already carries its transform estimate; "
                "passing a different one to the proxy would silently "
                "diverge — configure it on the engine"
            )
        self.keyring = keyring
        self.engine = engine
        self.psp = engine.psp
        self.storage = engine.storage
        self.transform_estimate = engine.transform_estimate

    # -- cache surface (delegates to the engine's tier-2 cache) ---------------

    @property
    def cache_limit(self) -> int | None:
        """Bound on the secret-part cache (None = unbounded).

        Settable on a live proxy; shrinking converges on the next
        insert.  Shared-engine proxies share the bound.
        """
        return self.engine.secret_cache.maxsize

    @cache_limit.setter
    def cache_limit(self, value: int | None) -> None:
        if value is not None and value < 1:
            raise ValueError(f"cache_limit must be >= 1, got {value}")
        self.engine.secret_cache.maxsize = value

    @property
    def cache_stats(self):
        """Hit/miss/eviction counters of the secret-part cache."""
        return self.engine.secret_cache.stats

    @property
    def _secret_cache(self) -> _SecretCacheView:
        return _SecretCacheView(self.engine)

    # -- downloads ------------------------------------------------------------

    def download(
        self,
        photo_id: str,
        album: str,
        resolution: int | None = None,
        crop_box: tuple[int, int, int, int] | None = None,
    ) -> np.ndarray:
        """Interpose on a photo download; returns reconstructed pixels.

        The secret part is fetched once per photo and cached, so viewing
        a thumbnail and then the large version downloads it only once
        (the bandwidth optimization described in Section 4.1); finished
        variants are additionally cached by the engine's tier-1 cache.
        """
        return self.serve(
            photo_id, album, resolution=resolution, crop_box=crop_box
        ).pixels

    def serve(
        self,
        photo_id: str,
        album: str,
        resolution: int | None = None,
        crop_box: tuple[int, int, int, int] | None = None,
    ):
        """Like :meth:`download` but returns the full
        :class:`~repro.serve.engine.ServeResult` (timings, provenance)."""
        # The PSP's access decision comes before the local key lookup,
        # as in the interposed flow: a stranger is denied by the
        # provider, not tripped up by their own missing album key.
        self.engine.check_access(photo_id, self.keyring.owner)
        return self.engine.serve(
            ServeRequest(
                photo_id=photo_id,
                album=album,
                key=self.keyring.key_for(album),
                requester=self.keyring.owner,
                resolution=resolution,
                crop_box=crop_box,
            ),
            preauthorized=True,
        )

    def download_public_only(
        self,
        photo_id: str,
        resolution: int | None = None,
        crop_box: tuple[int, int, int, int] | None = None,
    ) -> np.ndarray:
        """What a viewer *without* the album key sees (Figure 4, right)."""
        return self.engine.serve(
            ServeRequest(
                photo_id=photo_id,
                requester=self.keyring.owner,
                resolution=resolution,
                crop_box=crop_box,
            )
        ).pixels
