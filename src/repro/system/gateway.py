"""`P3Gateway`: the trusted proxy over HTTP, for one user or many.

The paper deploys one proxy per device; that is a gateway with one
registered user.  At PSP scale the same trusted logic also runs as a
*shared* middlebox — a household router, an enterprise egress proxy, a
campus appliance — serving many users at once.  The gateway is both
deployments (:class:`~repro.api.session.P3Session` is the same proxy
in process): it speaks the same
:class:`~repro.system.http.HttpRequest` / :class:`~repro.system.http.
HttpResponse` shapes the unmodified apps use, keeps one keyring per
registered user, and funnels every download through one shared
:class:`~repro.serve.engine.ServingEngine` — so ten users viewing the
same shared album hit one cache and share one reconstruction,
while users who lack an album key can never be served another tenant's
pixels (cache keys carry a key digest, and the PSP's access policy is
enforced per request).

HTTP surface::

    POST /photos/upload?album=trip[&viewers=bob,carol]   body: JPEG
    GET  /photos/<id>?album=trip[&size=720][&crop=t,l,h,w]
    GET  /stats

The requesting user arrives in the ``x-p3-user`` header (the
mitmproxy-style interposition knows which device a flow came from).
Responses carry raw pixels plus ``x-image-shape``/``x-image-dtype``
headers so the app can render them, and ``x-cache``/``x-serve-ms``
provenance for observability.
"""

from __future__ import annotations

import json
import threading

import numpy as np

from repro.api.backends import BlobStore, PSPBackend
from repro.core.config import P3Config
from repro.core.encryptor import P3Encryptor
from repro.crypto.envelope import EnvelopeError
from repro.crypto.keyring import Keyring
from repro.serve.engine import ServeRequest, ServeResult, ServingEngine
from repro.system.http import HttpRequest, HttpResponse
from repro.system.proxy import publish_encrypted
from repro.system.psp import AccessDeniedError, UploadRejectedError
from repro.system.reverse import TransformEstimate

#: Header carrying the authenticated tenant of a gateway request.
USER_HEADER = "x-p3-user"


class GatewayError(RuntimeError):
    """A gateway request could not be served (carries the response)."""

    def __init__(self, response: HttpResponse) -> None:
        super().__init__(response.body.decode("utf-8", "replace"))
        self.response = response


def _error(status: int, message: str) -> HttpResponse:
    return HttpResponse(
        status=status,
        headers={"content-type": "text/plain"},
        body=message.encode(),
    )


def map_exception(error: Exception) -> HttpResponse:
    """Translate a failed request into the gateway error contract.

    One mapping shared by every front end (the synchronous
    :class:`P3Gateway` and the async one built on top of it), so a
    given failure produces the identical status whichever door the
    request came through, checked in this order:

    * :class:`GatewayError` — the response it carries;
    * the provider's :class:`AccessDeniedError` — 403;
    * unknown photos/users/albums (``KeyError``) — 404;
    * rejected uploads (:class:`UploadRejectedError`) — 400;
    * a tampered or malformed stored envelope
      (:class:`~repro.crypto.envelope.EnvelopeError`) — 502: the
      gateway seals envelopes itself and reads them back from storage,
      never from the client, so a bad one is an upstream fault even
      though ``EnvelopeError`` is a ``ValueError``;
    * any other ``ValueError`` (malformed parameters) — 400;
    * anything else — backend outages, dead blob stores — 502, because
      the contract is "never raises".
    """
    if isinstance(error, GatewayError):
        return error.response
    if isinstance(error, AccessDeniedError):
        return _error(403, str(error))
    if isinstance(error, KeyError):
        return _error(404, str(error))
    if isinstance(error, UploadRejectedError):
        return _error(400, str(error))
    if isinstance(error, EnvelopeError):
        return _error(502, f"{type(error).__name__}: {error}")
    if isinstance(error, ValueError):
        return _error(400, str(error))
    return _error(502, f"{type(error).__name__}: {error}")


def pixel_response(result: ServeResult) -> HttpResponse:
    """Wrap a serve result as the HTTP response the app receives.

    The body is the view's one pixel copy: ``tobytes`` writes the
    engine's shared, read-only array out in C order.
    """
    pixels = result.pixels
    return HttpResponse(
        status=200,
        headers={
            "content-type": "image/x-raw-pixels",
            "x-image-shape": ",".join(str(d) for d in pixels.shape),
            "x-image-dtype": str(pixels.dtype),
            "x-photo-id": result.photo_id,
            "x-cache": result.source,
            "x-serve-ms": f"{result.timing.total_s * 1000:.3f}",
        },
        body=pixels.tobytes(),
    )


def pixels_from_response(response: HttpResponse) -> np.ndarray:
    """Decode a :func:`pixel_response` body back into an array."""
    shape = tuple(
        int(d) for d in response.headers["x-image-shape"].split(",")
    )
    dtype = np.dtype(response.headers.get("x-image-dtype", "uint8"))
    return np.frombuffer(response.body, dtype=dtype).reshape(shape).copy()


class P3Gateway:
    """A thread-safe, multi-tenant P3 serving tier.

    One gateway owns one (PSP, storage) pair, one shared serving
    engine, and a keyring per registered user.  :meth:`handle` is the
    whole HTTP surface; :meth:`add_user` / :meth:`share_album` manage
    tenancy.  Uploads go through the same
    :func:`~repro.system.proxy.publish_encrypted` path as
    :class:`~repro.api.session.P3Session` (rollback on partial failure
    included).
    """

    _GUARDED_BY = {"_keyrings": "_lock"}

    def __init__(
        self,
        psp: PSPBackend,
        storage: BlobStore,
        config: P3Config | None = None,
        *,
        engine: ServingEngine | None = None,
        transform_estimate: TransformEstimate | None = None,
    ) -> None:
        self.config = config or P3Config()
        self.engine = engine or ServingEngine(
            psp, storage, self.config, transform_estimate=transform_estimate
        )
        self.psp = self.engine.psp
        self.storage = self.engine.storage
        self._keyrings: dict[str, Keyring] = {}
        self._lock = threading.Lock()

    def close(self) -> None:
        """Nothing to release: cold serves run on the request thread.

        Kept so a sync gateway closes like the async front end that
        wraps one (:meth:`~repro.serve.async_gateway.AsyncGateway.close`).
        """

    # -- tenancy --------------------------------------------------------------

    def add_user(self, user: str, keyring: Keyring | None = None) -> Keyring:
        """Register a tenant; returns their keyring (idempotent when no
        explicit keyring is re-supplied for an existing user)."""
        if not user:
            raise ValueError("user must be non-empty")
        with self._lock:
            existing = self._keyrings.get(user)
            if existing is not None:
                if keyring is not None and keyring is not existing:
                    raise ValueError(
                        f"user {user!r} is already registered with a "
                        "different keyring"
                    )
                return existing
            keyring = keyring or Keyring(user)
            self._keyrings[user] = keyring
            return keyring

    def keyring_for(self, user: str) -> Keyring:
        with self._lock:
            try:
                return self._keyrings[user]
            except KeyError:
                raise KeyError(f"unknown gateway user {user!r}") from None

    @property
    def users(self) -> list[str]:
        with self._lock:
            return sorted(self._keyrings)

    def share_album(self, owner: str, album: str, *viewers: str) -> None:
        """Hand ``owner``'s album key to other registered users."""
        owner_keys = self.keyring_for(owner)
        for viewer in viewers:
            owner_keys.share_with(self.keyring_for(viewer), album)

    # -- the HTTP surface -----------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Serve one request; errors become status codes, never raises."""
        try:
            return self._dispatch(request)
        except Exception as error:  # noqa: BLE001 - the contract is
            # "never raises": every failure becomes a status code via
            # the shared mapping (backend outages included).
            return map_exception(error)

    def _dispatch(self, request: HttpRequest) -> HttpResponse:
        path = request.path
        if request.method == "POST" and path == "/photos/upload":
            return self._handle_upload(request)
        if request.method == "GET" and path.startswith("/photos/"):
            return self._handle_view(request, path[len("/photos/") :])
        if request.method == "GET" and path == "/stats":
            return HttpResponse(
                status=200,
                headers={"content-type": "application/json"},
                body=json.dumps(self.engine.snapshot()).encode(),
            )
        return _error(404, f"no route for {request.method} {path}")

    def authenticate(self, request: HttpRequest) -> Keyring:
        """Resolve the request's tenant or raise the 401 to send back.

        Shared by the sync dispatch and the async front end, so both
        report a missing or unknown ``x-p3-user`` identically.
        """
        user = request.headers.get(USER_HEADER, "")
        if not user:
            raise GatewayError(
                _error(401, f"missing {USER_HEADER} header")
            )
        try:
            return self.keyring_for(user)
        except KeyError:
            raise GatewayError(
                _error(401, f"unknown gateway user {user!r}")
            ) from None

    def _handle_upload(self, request: HttpRequest) -> HttpResponse:
        keyring = self.authenticate(request)
        query = request.query
        album = query.get("album", "")
        if not album:
            raise GatewayError(_error(400, "album= is required"))
        if not request.body:
            raise GatewayError(_error(400, "upload body is empty"))
        viewers = {
            name.strip()
            for name in query.get("viewers", "").split(",")
            if name.strip()
        } or None
        encryptor = P3Encryptor(keyring.ensure_album(album), self.config)
        photo = encryptor.encrypt_jpeg(request.body)
        receipt = publish_encrypted(
            self.psp,
            self.storage,
            photo,
            album,
            keyring.owner,
            viewers=viewers,
        )
        return HttpResponse(
            status=201,
            headers={
                "content-type": "text/plain",
                "x-photo-id": receipt.photo_id,
                "x-public-bytes": str(receipt.public_bytes),
                "x-secret-bytes": str(receipt.secret_bytes),
            },
            body=receipt.photo_id.encode(),
        )

    def view_request(
        self, request: HttpRequest, photo_id: str
    ) -> ServeRequest:
        """Parse one GET view into the engine's request shape.

        All the per-request policy lives here — authentication,
        parameter validation, and the key lookup that decides whether
        this tenant sees full or public-only pixels — so the sync and
        async front ends serve from byte-identical
        :class:`~repro.serve.engine.ServeRequest` values.
        """
        keyring = self.authenticate(request)
        if not photo_id:
            raise GatewayError(_error(404, "no photo ID in path"))
        query = request.query
        album = query.get("album") or None
        resolution = int(query["size"]) if "size" in query else None
        crop_box = None
        if "crop" in query:
            parts = [p for p in query["crop"].split(",") if p != ""]
            if len(parts) != 4:
                raise GatewayError(
                    _error(400, "crop= must be top,left,height,width")
                )
            crop_box = tuple(int(p) for p in parts)
        # A user without the album key gets the public-only view — the
        # Figure 4 story, per tenant.
        key = (
            keyring.key_for(album)
            if album is not None and album in keyring
            else None
        )
        return ServeRequest(
            photo_id=photo_id,
            album=album if key is not None else None,
            key=key,
            requester=keyring.owner,
            resolution=resolution,
            crop_box=crop_box,
            provider=query.get("provider") or None,
        )

    def _handle_view(
        self, request: HttpRequest, photo_id: str
    ) -> HttpResponse:
        return pixel_response(
            self.engine.serve(self.view_request(request, photo_id))
        )

    def __repr__(self) -> str:
        with self._lock:
            users = len(self._keyrings)
        return (
            f"P3Gateway(users={users}, "
            f"psp={getattr(self.psp, 'name', '?')!r}, "
            f"requests={self.engine.stats.count('requests')})"
        )
