"""The trusted proxy's write path (paper Section 4.1, Figure 3).

On upload the proxy splits the outgoing JPEG, sends the public part to
the PSP, and stores the encrypted secret part with the storage
provider under the photo ID the PSP returned.  The proxy runs in two
forms, :class:`~repro.api.session.P3Session` in process and
:class:`~repro.system.gateway.P3Gateway` over HTTP; both publish
through :func:`publish_encrypted` and serve through
:class:`~repro.serve.engine.ServingEngine`.  The proxy runs on the
client side of the trust boundary and is written against the
:class:`~repro.api.backends.PSPBackend` and
:class:`~repro.api.backends.BlobStore` protocols, so any conforming
backend — not just the built-in simulators — can sit on the far side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.backends import BlobStore, PSPBackend, best_effort_delete
from repro.core.encryptor import EncryptedPhoto
from repro.serve.keys import secret_blob_key

__all__ = ["UploadReceipt", "publish_encrypted"]


@dataclass
class UploadReceipt:
    """What the proxy reports back after an interposed upload."""

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
    for the session (single and batch uploads) and the gateway.
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
