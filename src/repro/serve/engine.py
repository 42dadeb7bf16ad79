"""`ServingEngine`: the concurrent read path behind every download.

The engine owns everything between "a viewer asked for photo X" and
"here are the pixels":

* a **three-tier cache** — tier 1 is the decoded-variant cache (LRU +
  TTL, keyed by photo/album/key/geometry/provider) holding finished
  reconstructions; tier 2 is the secret-part LRU holding decrypted
  :class:`~repro.core.serialization.SecretPart` objects, so a variant
  miss (a resolution not seen before) still skips the storage fetch +
  envelope decrypt; tier 3 is the secret-*envelope* cache holding the
  raw encrypted bytes as fetched from storage, shared by interactive
  serves and the batch pipeline's :meth:`ServingEngine.fetch_task`
  (so ``batch_download`` hits and populates the same tier the serve
  path does — a true miss still reaches storage and exercises
  read-repair on replicated stores);
* **partitioned eviction** — every tier is partitioned by album-key
  digest (:func:`repro.serve.keys.key_digest`; the envelope tier,
  which is key-independent ciphertext, partitions by album) with
  per-partition protected quotas, so one viral photo's tenant cannot
  evict every other tenant's working set; per-partition stats feed
  ``/stats``;
* **single-flight coalescing** — N concurrent viewers of the same
  variant trigger exactly one reconstruction (and concurrent misses
  on different variants of one photo share a single secret fetch);
* **one cold-serve path** — a cache miss fetches the public part,
  reads the secret part through tier 2 (which fills tier 3), and runs
  :func:`~repro.serve.reconstruct.reconstruct_served` on the two parts
  on the request's own thread; concurrent viewers overlap on the
  front end's threads (the async gateway's offload pool, or one
  thread per request on the sync gateway);
* **per-request timing** — every serve returns a
  :class:`ServeResult` with stage timings and cache provenance, and
  the engine's :class:`~repro.serve.stats.StatsRecorder` (request
  counters, p50/p99 over the last :data:`SERVE_WINDOW` serves) feeds
  dashboards and benchmarks;
* **no pixel copies on a hit** — a miss writes the view out once, as
  the immutable C-order ``bytes`` the variant cache holds; hits,
  coalesced waiters and shed previews share that object.  The HTTP
  gateways put it in the response body as it is, and
  :meth:`~repro.api.session.P3Session.download` makes the one
  writable copy its caller gets.

The engine is shared state: one engine serves every tenant of a
:class:`~repro.system.gateway.P3Gateway` and every viewer session of
a :class:`~repro.api.session.P3Session`.  Cache keys
therefore include a digest of the album key — a viewer who presents a
different (or no) key can never be served pixels reconstructed under
someone else's — and, when the PSP exposes ``check_access``, the
provider's access policy is enforced on *every* request, cache hits
and batch fetches included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.api.backends import BlobStore, PSPBackend
from repro.core.config import P3Config
from repro.core.decryptor import P3Decryptor
from repro.core.serialization import SecretPart
from repro.serve.cache import PartitionedLRUCache
from repro.serve.keys import key_digest, secret_blob_key
from repro.serve.reconstruct import check_crop, reconstruct_served
from repro.serve.singleflight import SingleFlight
from repro.serve.stats import StatsRecorder, percentile_ms

if TYPE_CHECKING:  # pragma: no cover - annotation-only: importing the
    # system package here would close an import cycle back onto the
    # gateway, which builds on this engine.
    from repro.api.pipeline import DecryptTask
    from repro.system.reverse import TransformEstimate

#: Serve latencies the engine keeps for its ``/stats`` p50/p99.
SERVE_WINDOW = 4096

#: The engine's ``/stats`` counters; every serve counts ``requests``
#: and exactly one of the other three.
SERVE_COUNTERS = ("requests", "reconstructions", "coalesced", "variant_hits")


@dataclass(frozen=True)
class ServeRequest:
    """One viewer request, as the serving tier sees it.

    ``key=None`` is the key-less viewer: only the public part is
    decoded (``album`` may then be omitted).  ``provider`` pins the
    public-part fetch to one named provider of a
    :class:`~repro.api.fanout.FanoutPSP` (no failover).  ``resolution``
    must be at least 1 when given.  ``crop_box`` is ``(top, left,
    height, width)`` with a non-negative origin and a positive size,
    and a keyed crop needs ``resolution``; the geometry is checked
    here, before any backend call.
    """

    photo_id: str
    album: str | None = None
    key: bytes | None = field(  # taint: source(secret)
        default=None, repr=False
    )
    requester: str = "anonymous"
    resolution: int | None = None
    crop_box: tuple[int, int, int, int] | None = None
    provider: str | None = None

    def __post_init__(self) -> None:
        if self.key is not None and self.album is None:
            raise ValueError("a keyed request must name its album")
        if self.resolution is not None and self.resolution < 1:
            raise ValueError(
                f"resolution must be at least 1, got {self.resolution}"
            )
        check_crop(self.crop_box, self.resolution, keyed=self.key is not None)

    @property
    def public_only(self) -> bool:
        return self.key is None

    def variant_key(self) -> tuple:
        """Cache identity of the finished pixels this request yields."""
        return (
            self.photo_id,
            self.album,
            key_digest(self.key),
            self.resolution,
            self.crop_box,
            self.provider,
        )

    def secret_key(self) -> tuple:
        """Cache identity of the decrypted secret part."""
        return (self.album, self.photo_id, key_digest(self.key))

    def envelope_key(self) -> tuple:
        """Cache identity of the raw secret envelope (key-independent:
        the envelope is ciphertext straight from storage)."""
        return (self.album, self.photo_id)


@dataclass
class ServeTiming:
    """Wall-clock seconds spent per stage of one serve."""

    fetch_public_s: float = 0.0
    fetch_secret_s: float = 0.0
    reconstruct_s: float = 0.0
    total_s: float = 0.0


@dataclass
class ServeResult:
    """Pixels plus the provenance and timing of how they were made.

    ``body`` is the view's C-order bytes, the variant cache's one form
    of it, shared by every serve of the variant; the HTTP gateways send
    this same object.  ``pixels`` is a read-only ``np.frombuffer`` view
    over ``body``: a write raises ``ValueError``, and so does
    ``setflags(write=True)``, because ``bytes`` is immutable.  A caller
    that needs to write copies it.
    """

    body: bytes = field(repr=False)
    pixels: np.ndarray
    photo_id: str
    variant_hit: bool = False
    secret_hit: bool = False
    coalesced: bool = False
    public_only: bool = False
    timing: ServeTiming = field(default_factory=ServeTiming)

    @property
    def source(self) -> str:
        if self.variant_hit:
            return "variant-cache"
        if self.coalesced:
            return "coalesced"
        return "reconstructed"


class ServingEngine:
    """The shared, concurrent core of the P3 read path.

    One engine fronts one (PSP, blob store) pair — single backends or
    fan-out/replicated composites alike — and may be shared by any
    number of gateway tenants or viewer sessions.  All methods are
    thread-safe.
    """

    # The engine holds no lock of its own: every mutable structure it
    # touches (caches, flight tables, stats) synchronizes internally,
    # and the remaining attributes are set once in __init__ and read
    # only.  Declared empty so the absence of guards is a statement,
    # not an omission.
    _GUARDED_BY: dict[str, str] = {}

    def __init__(
        self,
        psp: PSPBackend,
        storage: BlobStore,
        config: P3Config | None = None,
        *,
        transform_estimate: TransformEstimate | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Sizes all three cache tiers from ``config`` (see
        :class:`~repro.core.config.P3Config`); ``clock`` drives the
        variant tier's TTL."""
        config = config or P3Config()
        self.psp = psp
        self.storage = storage
        self.transform_estimate = transform_estimate
        # Tier partitioning: variant and secret-part keys carry the
        # album-key digest (one partition per tenant key); the envelope
        # tier holds key-independent ciphertext and partitions by album.
        quota = config.cache_partition_quota
        self.secret_cache = PartitionedLRUCache(
            config.secret_cache,
            partition=lambda key: key[2],
            quota_fraction=quota,
            name="secret-part",
        )
        self.variant_cache = PartitionedLRUCache(
            config.variant_cache,
            partition=lambda key: key[2],
            quota_fraction=quota,
            ttl=config.variant_ttl_s or None,
            clock=clock,
            name="decoded-variant",
        )
        self.envelope_cache = PartitionedLRUCache(
            config.envelope_cache,
            partition=lambda key: key[0],
            quota_fraction=quota,
            name="secret-envelope",
        )
        self.stats = StatsRecorder(serve=SERVE_WINDOW)
        self._variant_flights = SingleFlight()
        self._secret_flights = SingleFlight()
        self._envelope_flights = SingleFlight()
        # Backends exposing check_access get the no-round-trip cache
        # hit path; for all others every serve still calls download()
        # so the provider's in-band access enforcement keeps running.
        self._has_access_hook = (
            getattr(psp, "check_access", None) is not None
        )

    # -- the serve path -------------------------------------------------------

    def serve(
        self, request: ServeRequest, *, preauthorized: bool = False
    ) -> ServeResult:
        """Serve one request through access check, caches and coalescing.

        The returned body and pixels are the cache's own (see
        :class:`ServeResult`); a caller that needs to write copies
        the pixels.  The PSP's access policy, when it exposes
        ``check_access``, is enforced before the caches are consulted,
        so a cached variant never leaks to a viewer the provider would
        have refused.  A caller that already ran
        :meth:`check_access` for this request (the session's
        check-before-key-lookup ordering) passes ``preauthorized=True``
        to avoid paying for the round trip twice.
        """
        start = time.perf_counter()
        if not preauthorized:
            self._check_access(request)
        variant_key = request.variant_key()
        cached = self.variant_cache.get(variant_key)
        if cached is not None:
            if not self._has_access_hook:
                # The backend enforces access only inside download() (no
                # check_access hook), so a cache hit must still make the
                # provider round trip — the pre-refactor guarantee that
                # *every* serve gets the PSP's verdict.  The
                # reconstruction itself is still skipped, which is the
                # dominant cost.
                self._fetch_public(request)
            return self._hit(request, cached, start)
        built, leader = self._variant_flights.do(
            variant_key, lambda: self._build_variant(request)
        )
        result = ServeResult(
            body=built.body,
            pixels=built.pixels,
            photo_id=request.photo_id,
            secret_hit=built.secret_hit,
            coalesced=not leader,
            public_only=request.public_only,
            timing=replace(built.timing),
        )
        return self._record(result, start)

    def serve_cached(
        self, request: ServeRequest, *, preauthorized: bool = False
    ) -> ServeResult | None:
        """Answer from the variant cache alone, or return ``None``.

        The async front end's fast path: a hit costs an access check
        and a cache lookup — no copy, no storage round trip, no
        reconstruction, nothing worth leaving the event loop for.
        ``None`` means "not answerable cheaply": either the variant is
        not cached, or the backend enforces access only inside
        ``download()`` (no ``check_access`` hook), in which case even a
        cache hit owes the provider a round trip and belongs on the
        offload path — :meth:`serve` preserves that guarantee.

        A hit is a full serve as far as accounting goes: it lands in
        the engine's stats exactly as :meth:`serve` would.  A miss is
        not: the :meth:`serve` that follows counts it, and may pass
        ``preauthorized=True``, as this call took the access verdict.
        """
        if not self._has_access_hook:
            return None
        start = time.perf_counter()
        if not preauthorized:
            self._check_access(request)
        cached = self.variant_cache.get(
            request.variant_key(), count_miss=False
        )
        if cached is None:
            return None
        return self._hit(request, cached, start)

    def _hit(
        self, request: ServeRequest, cached: ServeResult, start: float
    ) -> ServeResult:
        """A variant-cache hit as a finished, recorded serve."""
        result = ServeResult(
            body=cached.body,
            pixels=cached.pixels,
            photo_id=request.photo_id,
            variant_hit=True,
            secret_hit=cached.secret_hit,
            public_only=request.public_only,
        )
        return self._record(result, start)

    def _record(self, result: ServeResult, start: float) -> ServeResult:
        total_s = time.perf_counter() - start
        result.timing.total_s = total_s
        if result.variant_hit:
            kind = "variant_hits"
        elif result.coalesced:
            kind = "coalesced"
        else:
            kind = "reconstructions"
        self.stats.record("requests", kind, window="serve", sample=total_s)
        return result

    # -- the batch-pipeline seam ----------------------------------------------

    def fetch_task(
        self, request: ServeRequest, *, preauthorized: bool = False
    ) -> DecryptTask:
        """Fetch the raw served parts as a picklable ``DecryptTask``.

        The batch pipeline opens envelopes and reconstructs in worker
        processes (that is the parallel work a batch exists for), so
        it needs bytes, not cached Python objects: the secret part is
        taken from (and installed into) the shared *envelope* cache —
        the same tier interactive serves fill — so a batch over a warm
        working set skips the storage round trips, while a true miss
        still reaches storage and exercises read-repair on replicated
        stores.  Fetch logic — provider pinning included — and the
        reconstruction core inside the task are the serve path's own.

        The PSP's access policy is enforced here exactly as
        :meth:`serve` enforces it, envelope-cache hits included:
        direct engine callers get the same verdict the session seam
        applies.  A caller that already ran :meth:`check_access` for
        this request passes ``preauthorized=True``.
        """
        from repro.api.pipeline import DecryptTask

        if not preauthorized:
            self._check_access(request)
        public_jpeg = self._fetch_public(request)
        envelope: bytes | None = None
        if not request.public_only:
            envelope = self._fetch_envelope(request)
        return DecryptTask(
            key=request.key,
            public_jpeg=public_jpeg,
            secret_envelope=envelope,
            resolution=request.resolution,
            crop_box=request.crop_box,
            transform_estimate=self.transform_estimate,
        )

    # -- internals ------------------------------------------------------------

    def check_access(self, photo_id: str, requester: str) -> None:
        """Enforce the PSP's access policy when the backend exposes one.

        Runs on every serve (cache hits included); callers that need
        the PSP's verdict *before* touching their own keyring — the
        interposed order of operations, where a stranger is denied by
        the provider rather than failing on their own missing album
        key — call it directly first.
        """
        checker = getattr(self.psp, "check_access", None)
        if checker is not None:
            checker(photo_id, requester)

    def _check_access(self, request: ServeRequest) -> None:
        self.check_access(request.photo_id, request.requester)

    def _fetch_public(self, request: ServeRequest) -> bytes:
        """The served public part, honoring a pinned provider."""
        if request.provider is not None:
            download_from = getattr(self.psp, "download_from", None)
            if download_from is None:
                raise ValueError(
                    f"psp {getattr(self.psp, 'name', '?')!r} is a single "
                    f"provider; provider={request.provider!r} needs a "
                    "FanoutPSP"
                )
            return download_from(
                request.provider,
                request.photo_id,
                requester=request.requester,
                resolution=request.resolution,
                crop_box=request.crop_box,
            )
        return self.psp.download(
            request.photo_id,
            requester=request.requester,
            resolution=request.resolution,
            crop_box=request.crop_box,
        )

    def _build_variant(self, request: ServeRequest) -> ServeResult:
        """Cache miss: fetch both parts, reconstruct, install the variant.

        The secret part comes through tier 2 (:meth:`_fetch_secret`),
        so a second size of a photo skips the storage fetch and the
        envelope open.

        Returns the *master* result, whose ``body`` is the view's one
        copy and the form the cache keeps; :meth:`serve` hands that
        same object to the leader and every coalesced waiter.
        """
        timing = ServeTiming()
        clock = time.perf_counter
        t0 = clock()
        public_jpeg = self._fetch_public(request)
        timing.fetch_public_s = clock() - t0
        secret_part: SecretPart | None = None
        secret_hit = False
        if not request.public_only:
            t0 = clock()
            secret_part, secret_hit = self._fetch_secret(request)
            timing.fetch_secret_s = clock() - t0
        t0 = clock()
        pixels = reconstruct_served(
            public_jpeg,
            secret_part,
            resolution=request.resolution,
            crop_box=request.crop_box,
            transform_estimate=self.transform_estimate,
        )
        timing.reconstruct_s = clock() - t0
        body = pixels.tobytes()
        result = ServeResult(
            body=body,
            pixels=np.frombuffer(body, pixels.dtype).reshape(pixels.shape),
            photo_id=request.photo_id,
            secret_hit=secret_hit,
            public_only=request.public_only,
            timing=timing,
        )
        self.variant_cache.put(request.variant_key(), result)
        return result

    def _fetch_secret(
        self, request: ServeRequest
    ) -> tuple[SecretPart, bool]:
        """Tier-2 lookup: decrypted secret part, single-flighted.

        Concurrent misses on *different variants* of one photo share a
        single storage fetch + envelope decrypt.  The raw envelope
        passes through (and fills) the tier-3 envelope cache on the
        way, so interactive serves and batch fetches stay one storage
        round trip apart at most.
        """
        key = request.secret_key()
        cached = self.secret_cache.get(key)
        if cached is not None:
            return cached, True

        def fetch() -> SecretPart:
            envelope = self._fetch_envelope(request)
            secret_part = P3Decryptor(request.key).open_secret(envelope)
            self.secret_cache.put(key, secret_part)
            return secret_part

        secret_part, _ = self._secret_flights.do(key, fetch)
        return secret_part, False

    def _fetch_envelope(self, request: ServeRequest) -> bytes:
        """Tier-3 lookup: raw secret envelope, single-flighted.

        The one seam every secret-part read goes through — interactive
        serves (via :meth:`_fetch_secret`) and the batch pipeline's
        :meth:`fetch_task` alike — so all paths hit and populate the
        same tier.  A miss is a real ``storage.get`` and therefore
        still exercises read-repair on replicated stores.
        """
        key = request.envelope_key()
        cached = self.envelope_cache.get(key)
        if cached is not None:
            return cached

        def fetch() -> bytes:
            envelope = self.storage.get(
                secret_blob_key(request.album, request.photo_id)
            )
            self.envelope_cache.put(key, envelope)
            return envelope

        envelope, _ = self._envelope_flights.do(key, fetch)
        return envelope

    def snapshot(self) -> dict[str, Any]:
        """One JSON-able view of the engine's health counters.

        Each cache tier reports its global counters plus per-partition
        breakdowns (tenant-key digest for the variant/secret tiers,
        album for the envelope tier), so a gateway's ``/stats`` shows
        exactly which tenant is hot and who is getting evicted.  The
        ``codec`` key is :func:`repro.jpeg.engine_info`, so deployments
        can verify that the native kernel loaded (and read the build
        error text if compilation failed).
        """
        from repro.jpeg.engines import engine_info

        # One recorder read: the percentiles come from exactly the
        # serves the counters describe.
        counts, windows = self.stats.snapshot()
        serving: dict[str, int | float] = {
            name: counts.get(name, 0) for name in SERVE_COUNTERS
        }
        serving["p50_ms"] = percentile_ms(windows["serve"], 50)
        serving["p99_ms"] = percentile_ms(windows["serve"], 99)
        return {
            "serving": serving,
            "codec": engine_info(),
            "variant_cache": self.variant_cache.snapshot(),
            "secret_cache": self.secret_cache.snapshot(),
            "envelope_cache": self.envelope_cache.snapshot(),
            "variant_entries": len(self.variant_cache),
            "secret_entries": len(self.secret_cache),
            "envelope_entries": len(self.envelope_cache),
            "partitions": {
                "variant_cache": self.variant_cache.partitions(),
                "secret_cache": self.secret_cache.partitions(),
                "envelope_cache": self.envelope_cache.partitions(),
            },
        }

    def __repr__(self) -> str:
        return (
            f"ServingEngine(psp={getattr(self.psp, 'name', '?')!r}, "
            f"variants={len(self.variant_cache)}, "
            f"secrets={len(self.secret_cache)}, "
            f"requests={self.stats.count('requests')})"
        )
