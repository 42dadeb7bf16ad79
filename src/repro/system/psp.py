"""Photo-sharing provider (PSP) simulators.

Models the black-box behaviour the paper measured on real services
(Section 2.1 and 4.1):

* on upload, the PSP statically re-encodes the photo at several fixed
  resolutions (Facebook: 720/130/75) through a *private* pipeline
  (resize kernel + optional sharpening + re-quantization) whose
  parameters outsiders cannot see;
* Facebook converts files to progressive mode and strips all
  application markers; Flickr keeps baseline;
* dynamic downloads can request arbitrary resizing and cropping via
  URL query parameters;
* fully-encrypted (non-JPEG) uploads are rejected;
* every photo gets an opaque unique ID — except PhotoBucket, whose
  guessable sequential URLs reproduce the "fusking" leak.

The PSP is *untrusted*: it may run recognition on everything it stores
(exposed via :meth:`PhotoSharingProvider.run_analysis` so experiments
can play the adversary).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np

from repro.api.backends import PSPBackend  # noqa: F401  (re-export: the
# contract every provider here implements; kept importable from this
# module so backend authors find it next to the reference simulators)
from repro.jpeg.codec import decode, encode_gray, encode_rgb
from repro.jpeg.native.pixels import planes_to_rgb8
from repro.transforms.crop import Crop
from repro.transforms.enhance import unsharp_mask
from repro.transforms.resize import fit_within, resize_plane


def _round_plane(plane: np.ndarray) -> np.ndarray:
    """One float plane rounded half to even and clipped to uint8, as
    :func:`~repro.jpeg.native.pixels.planes_to_rgb8` packs each plane."""
    return planes_to_rgb8([plane] * 3)[..., 0]


class UploadRejectedError(ValueError):
    """The PSP refused an upload (e.g. not a decodable JPEG)."""


class AccessDeniedError(PermissionError):
    """The requester may not view this photo."""


@dataclass
class _StoredPhoto:
    owner: str
    viewers: set[str]
    variants: dict[int, bytes]  # long-side resolution -> encoded bytes
    original_size: tuple[int, int]  # (height, width)


@dataclass(frozen=True)
class PipelineConfig:
    """The PSP's private transformation parameters.

    Every PSP decodes an upload to pixels and re-encodes each variant,
    so no APPn or COM segment of an upload survives at any provider.
    """

    kernel: str
    sharpen_amount: float
    quality: int
    progressive: bool


class PhotoSharingProvider:  # relint: implements PSPBackend
    """Base PSP with upload/variant/dynamic-download machinery."""

    _GUARDED_BY = {
        "_photos": "_lock",
        "_counter": "_lock",
        # Byte counters mutate under the lock, are read plain.
        "bytes_served": "_lock:writes",
        "bytes_received": "_lock:writes",
    }

    name = "generic"
    static_resolutions: tuple[int, ...] = (720, 130, 75)
    #: Private pipeline parameters — not visible to clients.
    _pipeline = PipelineConfig(
        kernel="bicubic",
        sharpen_amount=0.0,
        quality=82,
        progressive=False,
    )

    def __init__(self) -> None:
        self._photos: dict[str, _StoredPhoto] = {}
        self._counter = 0
        self.bytes_served = 0
        self.bytes_received = 0
        # Concurrent ingest (fan-out executors) and serving (gateway
        # threads) share one provider instance: every touch of the
        # photo table / counters happens under this lock.  The
        # CPU-heavy transcodes deliberately run outside it.
        self._lock = threading.RLock()

    # -- naming ---------------------------------------------------------------

    def _new_photo_id(self, data: bytes) -> str:  # guarded-by: _lock
        """Opaque, unguessable ID (hash-based), as real PSPs assign.

        Callers hold ``_lock`` (the counter is shared state).
        """
        self._counter += 1
        digest = hashlib.sha256(
            data + self._counter.to_bytes(8, "big") + self.name.encode()
        ).hexdigest()
        return digest[:16]

    # -- upload ---------------------------------------------------------------

    def upload(
        self, data: bytes, owner: str, viewers: set[str] | None = None
    ) -> str:
        """Store a photo; returns its unique ID.

        Non-JPEG payloads (e.g. fully-encrypted blobs) are rejected,
        reproducing the paper's observation that end-to-end encryption
        simply does not pass PSP ingestion.
        """
        with self._lock:
            self.bytes_received += len(data)
        try:
            pixels = decode(data)
        except Exception as error:
            raise UploadRejectedError(
                f"{self.name} rejected the upload: {error}"
            ) from error
        if pixels.ndim == 2:
            # Rounded, like every other float-to-uint8 step here; a
            # truncating cast would bias each variant dark.
            planes = [_round_plane(pixels)]
        else:
            planes = [pixels[..., channel] for channel in range(3)]
        variants = {}
        for resolution in self.static_resolutions:
            variants[resolution] = self._transcode(planes, resolution)
        with self._lock:
            photo_id = self._new_photo_id(data)
            self._photos[photo_id] = _StoredPhoto(
                owner=owner,
                viewers=set(viewers or set()) | {owner},
                variants=variants,
                original_size=planes[0].shape,
            )
        return photo_id

    def _transcode(self, planes: list[np.ndarray], resolution: int) -> bytes:
        """Run the private pipeline to one static resolution: the three
        RGB planes of a colour photo, or the one plane of a grey one."""
        height, width = planes[0].shape
        out_h, out_w = fit_within(height, width, resolution, resolution)
        resized = []
        for plane in planes:
            plane = resize_plane(plane, out_h, out_w, self._pipeline.kernel)
            if self._pipeline.sharpen_amount > 0:
                plane = unsharp_mask(
                    plane, radius=1.0, amount=self._pipeline.sharpen_amount
                )
            resized.append(plane)
        return self._encode(resized)

    def _encode(self, planes: list[np.ndarray]) -> bytes:
        """Round and clip float planes to 8 bits and encode them: one
        plane as a grey JPEG, three as a 4:4:4 colour one."""
        if len(planes) == 1:
            return encode_gray(
                _round_plane(planes[0]),
                quality=self._pipeline.quality,
                progressive=self._pipeline.progressive,
            )
        return encode_rgb(
            planes_to_rgb8(planes),
            quality=self._pipeline.quality,
            subsampling="4:4:4",
            progressive=self._pipeline.progressive,
        )

    # -- download -------------------------------------------------------------

    def download(
        self,
        photo_id: str,
        requester: str,
        resolution: int | None = None,
        crop_box: tuple[int, int, int, int] | None = None,
    ) -> bytes:
        """Serve a stored variant, optionally dynamically resized/cropped.

        ``resolution`` selects the smallest static variant that covers
        the request, then resizes down to the exact size (what the
        Facebook protocol's dynamic parameters do).  ``crop_box`` is
        (top, left, height, width) in the served variant's coordinates.
        """
        photo = self._get_checked(photo_id, requester)
        return self._serve(photo, resolution, crop_box)

    def _serve(
        self,
        photo: _StoredPhoto,
        resolution: int | None,
        crop_box: tuple[int, int, int, int] | None,
    ) -> bytes:
        """Shared download machinery behind the access-control check.

        Requests beyond the largest stored variant are capped at the
        source variant's size, like real PSPs: the variant's bytes are
        served as stored instead of taking a pointless decode +
        re-encode generation-loss round trip toward a resolution the
        provider never had.
        """
        with self._lock:
            largest = max(photo.variants)
            if resolution is None or resolution > largest:
                resolution = largest
            source_resolution = min(
                r for r in photo.variants if r >= resolution
            )
            data = photo.variants[source_resolution]
        if source_resolution != resolution or crop_box is not None:
            data = self._dynamic_transform(data, resolution, crop_box)
        with self._lock:
            self.bytes_served += len(data)
        return data

    def _dynamic_transform(
        self,
        data: bytes,
        resolution: int,
        crop_box: tuple[int, int, int, int] | None,
    ) -> bytes:
        pixels = decode(data)
        if pixels.ndim == 2:
            planes = [pixels]
        else:
            planes = [pixels[..., channel] for channel in range(3)]
        height, width = pixels.shape[:2]
        out_h, out_w = fit_within(height, width, resolution, resolution)
        resized = []
        for plane in planes:
            plane = resize_plane(plane, out_h, out_w, self._pipeline.kernel)
            if crop_box is not None:
                plane = Crop(*crop_box)(plane)
            resized.append(plane)
        return self._encode(resized)

    def delete(self, photo_id: str) -> None:
        """Remove a photo and its variants (missing IDs are a no-op).

        Client rollback paths (a publish whose secret-part put failed)
        call this best-effort, so it must tolerate already-gone IDs.
        """
        with self._lock:
            self._photos.pop(photo_id, None)

    def check_access(self, photo_id: str, requester: str) -> None:
        """Enforce the viewer policy without serving bytes.

        The serving tier calls this on *every* request — cache hits
        included — so a cached reconstruction never bypasses the
        provider's access control.  Raises ``KeyError`` for unknown
        photos and :class:`AccessDeniedError` for non-viewers.
        """
        self._get_checked(photo_id, requester)

    def _get_checked(self, photo_id: str, requester: str) -> _StoredPhoto:
        with self._lock:
            if photo_id not in self._photos:
                raise KeyError(f"no photo {photo_id!r}")
            photo = self._photos[photo_id]
        if requester not in photo.viewers:
            raise AccessDeniedError(
                f"{requester!r} may not view photo {photo_id!r}"
            )
        return photo

    # -- the adversarial side ------------------------------------------------

    def stored_variant(self, photo_id: str, resolution: int) -> bytes:
        """Direct access to stored bytes — the PSP inspecting its disk.

        Used by the evaluation to run recognition attacks on exactly
        what the provider holds.
        """
        with self._lock:
            return self._photos[photo_id].variants[resolution]

    def all_photo_ids(self) -> list[str]:
        with self._lock:
            return list(self._photos)

    def run_analysis(self, analyzer, resolution: int | None = None) -> dict:
        """Run an attack callable over every stored photo.

        ``analyzer(pixels) -> result`` models the PSP's recognition
        infrastructure; returns {photo_id: result}.  ``resolution=None``
        analyzes each photo's largest stored variant; any other value
        must name a stored variant exactly (``0`` is an error, not a
        fallback).
        """
        results = {}
        with self._lock:
            photos = dict(self._photos)
        for photo_id, photo in photos.items():
            chosen = max(photo.variants) if resolution is None else resolution
            if chosen not in photo.variants:
                raise KeyError(
                    f"no stored variant {chosen!r} for photo {photo_id!r}; "
                    f"available: {sorted(photo.variants)}"
                )
            pixels = decode(photo.variants[chosen])
            results[photo_id] = analyzer(pixels)
        return results


class FacebookPSP(PhotoSharingProvider):
    """Facebook-like behaviour: 720/130/75, progressive, bicubic+sharpen."""

    name = "facebook"
    static_resolutions = (720, 130, 75)
    _pipeline = PipelineConfig(
        kernel="bicubic",
        sharpen_amount=0.4,
        quality=80,
        progressive=True,
    )


class FlickrPSP(PhotoSharingProvider):
    """Flickr-like behaviour: more sizes, baseline output, lanczos."""

    name = "flickr"
    static_resolutions = (1024, 500, 240, 100)
    _pipeline = PipelineConfig(
        kernel="lanczos",
        sharpen_amount=0.0,
        quality=84,
        progressive=False,
    )


class PhotoBucketPSP(PhotoSharingProvider):
    """A PSP with guessable sequential photo URLs (the fusking leak).

    Unlike the others it does not assign unguessable IDs, and download
    performs *no* access check — reproducing the privacy incident that
    motivates the paper's first threat (Section 2.2): anyone who can
    enumerate URLs can fetch stored photos.
    """

    name = "photobucket"
    static_resolutions = (640, 160)
    _pipeline = PipelineConfig(
        kernel="bilinear",
        sharpen_amount=0.0,
        quality=82,
        progressive=False,
    )

    def _new_photo_id(self, data: bytes) -> str:  # guarded-by: _lock
        self._counter += 1
        return f"img{self._counter:06d}"

    def check_access(self, photo_id: str, requester: str) -> None:
        # No viewer policy to enforce (that is the vulnerability);
        # only existence is checked.
        with self._lock:
            if photo_id not in self._photos:
                raise KeyError(f"no photo {photo_id!r}")

    def download(
        self,
        photo_id: str,
        requester: str,
        resolution: int | None = None,
        crop_box: tuple[int, int, int, int] | None = None,
    ) -> bytes:
        # No access control: the fusking vulnerability.  The serving
        # machinery itself is the shared base implementation.
        with self._lock:
            photo = self._photos.get(photo_id)
        if photo is None:
            raise KeyError(f"no photo {photo_id!r}")
        return self._serve(photo, resolution, crop_box)
