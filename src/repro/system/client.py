"""The unmodified photo-sharing app, talking HTTP through a P3 gateway.

:class:`PhotoSharingClient` models the browser/app of the paper's
architecture (Figure 3): it frames plain HTTP uploads and downloads,
and the trusted proxy in front of it — a
:class:`~repro.system.gateway.P3Gateway`, with one user for the
paper's one-device deployment or many on a shared middlebox —
interposes transparently.  The app never sees keys, splitting, or
reconstruction: it sends a JPEG and receives pixels.  Every operation
round-trips through ``gateway.handle`` and decodes the
``HttpResponse`` like a real app would, and :attr:`request_log` holds
the requests it sent.
"""

from __future__ import annotations

import numpy as np

from repro.system.gateway import USER_HEADER, P3Gateway, pixels_from_response
from repro.system.http import HttpRequest, HttpResponse, build_url
from repro.system.proxy import UploadReceipt


class PhotoSharingClient:
    """An application whose PSP traffic goes through a P3 gateway.

    The gateway talks to whatever :class:`~repro.api.backends.PSPBackend`
    and :class:`~repro.api.backends.BlobStore` it was wired with; the
    client itself only ever sees HTTP requests and pixels.
    """

    def __init__(self, user: str, gateway: P3Gateway) -> None:
        self.user = user
        self.gateway = gateway
        self.request_log: list[HttpRequest] = []

    @classmethod
    def for_gateway(
        cls, gateway: P3Gateway, user: str
    ) -> "PhotoSharingClient":
        """An app for ``user`` on ``gateway``.

        The user is registered with the gateway if they are not
        already.
        """
        gateway.add_user(user)
        return cls(user, gateway)

    def _send(self, request: HttpRequest) -> HttpResponse:
        """One real round trip through the gateway; non-2xx raises."""
        request.headers.setdefault(USER_HEADER, self.user)
        self.request_log.append(request)
        response = self.gateway.handle(request)
        if not response.ok:
            raise RuntimeError(
                f"gateway returned {response.status} for "
                f"{request.method} {request.path}: "
                f"{response.body.decode('utf-8', 'replace')}"
            )
        return response

    def _url(self, path: str, params: dict[str, str]) -> str:
        base = f"https://{self.gateway.psp.name}.example"
        return build_url(base, path, params)

    # -- the unmodified app's operations --------------------------------------

    def upload_photo(
        self,
        jpeg_bytes: bytes,
        album: str,
        viewers: set[str] | None = None,
    ) -> UploadReceipt:
        """POST a photo; the gateway splits and publishes it."""
        params = {"album": album}
        if viewers:
            params["viewers"] = ",".join(sorted(viewers))
        response = self._send(
            HttpRequest(
                method="POST",
                url=self._url("/photos/upload", params),
                headers={"content-type": "image/jpeg"},
                body=jpeg_bytes,
            )
        )
        return UploadReceipt(
            photo_id=response.headers["x-photo-id"],
            public_bytes=int(response.headers["x-public-bytes"]),
            secret_bytes=int(response.headers["x-secret-bytes"]),
        )

    def view_photo(
        self,
        photo_id: str,
        album: str,
        resolution: int | None = None,
        crop_box: tuple[int, int, int, int] | None = None,
    ) -> np.ndarray:
        """GET a photo; the gateway reconstructs it.

        The photo ID rides in the URL, which is how the proxy learns
        which secret part to fetch (Section 4.1).
        """
        return self._view(photo_id, {"album": album}, resolution, crop_box)

    def view_photo_without_key(
        self, photo_id: str, resolution: int | None = None
    ) -> np.ndarray:
        """What a recipient lacking the album key renders (public only)."""
        return self._view(photo_id, {}, resolution, None)

    def _view(
        self,
        photo_id: str,
        params: dict[str, str],
        resolution: int | None,
        crop_box: tuple[int, int, int, int] | None,
    ) -> np.ndarray:
        if resolution is not None:
            params["size"] = str(resolution)
        if crop_box is not None:
            params["crop"] = ",".join(str(v) for v in crop_box)
        url = self._url(f"/photos/{photo_id}", params)
        return pixels_from_response(
            self._send(HttpRequest(method="GET", url=url))
        )
