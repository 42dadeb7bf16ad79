"""Multi-backend composition: publish once, survive any single backend.

The paper's client already treats the PSP and the blob store as
interchangeable black boxes; this module scales that from *one of each*
to *fleets of both* without touching the trusted proxy:

* :class:`FanoutPSP` is a composite :class:`~repro.api.backends.
  PSPBackend`: one upload fans out to every registered provider, the
  per-provider photo IDs are recorded in a route map under one
  composite ID, and downloads fail over provider by provider (or
  demand byte-agreement from a quorum).
* :class:`ReplicatedBlobStore` / :class:`ShardedBlobStore` are
  composite :class:`~repro.api.backends.BlobStore` implementations:
  keys are placed on N backing stores by stable rendezvous (highest-
  random-weight) hashing, written to R replicas, and missing replicas
  are re-created on read (read-repair) — the RADON-style discipline
  that a photo published anywhere must reconstruct from any surviving
  replica.

Both composites satisfy the same protocols the single backends do, so
:class:`~repro.api.session.P3Session` and
:class:`~repro.system.gateway.P3Gateway` cannot tell one provider from
five.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Iterable, Sequence

from repro.api.backends import BlobStore, PSPBackend, best_effort_delete
from repro.api.executors import Executor, describe_error, run_calls

#: In-process fallback for composites built without an executor.
_SERIAL_FALLBACK = Executor()


class FanoutError(RuntimeError):
    """A multi-backend operation could not meet its success policy."""


class FanoutUploadError(FanoutError):
    """Too few providers accepted an upload (succeeded ones rolled back)."""


class FanoutDownloadError(KeyError):
    """Every provider holding a photo failed to serve it.

    A ``KeyError`` subclass so session/batch callers treat an
    exhausted fan-out exactly like a missing photo.
    """


# -- placement ----------------------------------------------------------------


def rendezvous_order(key: str, count: int) -> list[int]:
    """Stable preference order of ``count`` backends for ``key``.

    Highest-random-weight hashing: each backend index scores
    ``sha256(index | key)`` and the order is by descending score.  The
    placement depends only on (key, count) — no coordinator state, no
    reshuffling when other keys come and go, and adding a backend moves
    only ~1/N of the keys.
    """
    if count < 1:
        raise ValueError(f"need at least one backend, got {count}")
    scores = [
        (hashlib.sha256(f"{index}|{key}".encode()).digest(), index)
        for index in range(count)
    ]
    return [index for _, index in sorted(scores, reverse=True)]


# -- blob-store composites ----------------------------------------------------


class ReplicatedBlobStore:  # relint: implements BlobStore
    """R-way replicated, rendezvous-sharded composite blob store.

    ``put`` walks the key's preference order until ``replicas`` stores
    accepted the blob, skipping stores that error (so one dead store
    degrades durability instead of failing the publish); at least one
    replica must land or the put raises.  With an ``executor`` the
    ring-prefix replicas are written *concurrently* (the puts are
    network-bound against real stores) and only failures fall back to
    the serial walk down the ring — semantics are identical either
    way.  ``get`` returns the first replica found and re-creates
    missing replicas from it (read-repair), so a wiped store heals as
    its keys are read.
    """

    # Written under the counter lock from executor and serving threads
    # alike; read plain by repr/benchmarks (atomic int replacement).
    _GUARDED_BY = {
        "repairs": "_counter_lock:writes",
        "degraded_puts": "_counter_lock:writes",
    }

    def __init__(
        self,
        stores: Sequence[BlobStore],
        replicas: int = 2,
        *,
        read_repair: bool = True,
        name: str | None = None,
        executor: Executor | None = None,
    ) -> None:
        stores = list(stores)
        if not stores:
            raise ValueError("ReplicatedBlobStore needs at least one store")
        if not 1 <= replicas <= len(stores):
            raise ValueError(
                f"replicas must be in [1, {len(stores)}], got {replicas}"
            )
        self.stores = stores
        self.replicas = replicas
        self.read_repair = read_repair
        self.executor = executor  # None = serial replica puts
        self.name = name or f"replicated({len(stores)} stores, r={replicas})"
        self.repairs = 0  # replicas re-created by read-repair
        self.degraded_puts = 0  # puts that landed fewer than R replicas
        # Counters are bumped from executor threads and serving
        # threads alike; the lock keeps them exact.
        self._counter_lock = threading.Lock()

    # -- placement (public: tests and benchmarks reason about it) ------------

    def preference(self, key: str) -> list[int]:
        """All store indices in the key's stable preference order."""
        return rendezvous_order(key, len(self.stores))

    def replica_indices(self, key: str) -> list[int]:
        """Where the key's replicas live when every store is healthy."""
        return self.preference(key)[: self.replicas]

    # -- the BlobStore protocol ----------------------------------------------

    def put(self, key: str, blob: bytes) -> None:
        order = self.preference(key)
        written = 0
        errors: list[str] = []
        remaining = order
        if self.executor is not None and self.replicas > 1:
            # Fast path: write the healthy-case replica set in one
            # concurrent wave; only failures walk further down the ring.
            prefix = order[: self.replicas]
            outcomes = run_calls(
                self.executor,
                [
                    (lambda store=self.stores[i]: store.put(key, blob))
                    for i in prefix
                ],
            )
            for index, outcome in zip(prefix, outcomes):
                if outcome.ok:
                    written += 1
                else:
                    errors.append(f"store[{index}]: {outcome.error}")
            remaining = order[self.replicas :]
        for index in remaining:
            if written == self.replicas:
                return
            try:
                self.stores[index].put(key, blob)
            except Exception as error:
                errors.append(f"store[{index}]: {describe_error(error)}")
                continue
            written += 1
        if written == self.replicas:
            return
        if written == 0:
            raise FanoutError(
                f"no store accepted {key!r}: " + "; ".join(errors)
            )
        with self._counter_lock:
            self.degraded_puts += 1

    def get(self, key: str) -> bytes:
        order = self.preference(key)
        blob: bytes | None = None
        found_at: int | None = None
        for index in order:
            try:
                blob = self.stores[index].get(key)
            except Exception:  # missing replica or dead store: keep walking
                continue
            found_at = index
            break
        if blob is None or found_at is None:
            raise KeyError(f"no surviving replica of {key!r}")
        if self.read_repair:
            self._repair(key, blob, order, found_at)
        return blob

    def _repair(
        self, key: str, blob: bytes, order: list[int], found_at: int
    ) -> None:
        """Re-create the key on ring-prefix stores that lost it."""
        for index in order[: self.replicas]:
            if index == found_at:
                continue
            store = self.stores[index]
            try:
                if not store.exists(key):
                    store.put(key, blob)
                    with self._counter_lock:
                        self.repairs += 1
            except Exception:
                continue  # that replica stays missing; next read retries

    def exists(self, key: str) -> bool:
        for store in self.stores:
            try:
                if store.exists(key):
                    return True
            except Exception:
                continue
        return False

    def delete(self, key: str) -> None:
        # Degraded puts and read-repair can place a key outside its
        # ring prefix, so deletion sweeps every backing store.
        for store in self.stores:
            try:
                store.delete(key)
            except Exception:
                continue

    def keys(self) -> list[str]:
        """Union of the backing stores' keys (where they expose them)."""
        seen: set[str] = set()
        for store in self.stores:
            lister = getattr(store, "keys", None)
            if lister is None:
                continue
            try:
                seen.update(lister())
            except Exception:
                continue
        return sorted(seen)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(stores={len(self.stores)}, "
            f"replicas={self.replicas}, repairs={self.repairs})"
        )


class ShardedBlobStore(ReplicatedBlobStore):  # relint: implements BlobStore
    """Pure sharding: each key lives on exactly one backing store.

    The ``replicas=1`` corner of :class:`ReplicatedBlobStore` — same
    stable placement, no redundancy — for when capacity, not
    durability, is the reason to spread keys.
    """

    def __init__(
        self, stores: Sequence[BlobStore], *, name: str | None = None
    ) -> None:
        super().__init__(stores, replicas=1, read_repair=False, name=name)
        if name is None:
            self.name = f"sharded({len(self.stores)} stores)"


# -- the PSP composite --------------------------------------------------------


class FanoutPSP:  # relint: implements PSPBackend
    """One logical provider backed by several real ones.

    ``upload`` publishes to every registered provider — concurrently
    when an ``executor`` is configured (per-provider ingest is
    network-bound against real PSPs, so a 3-provider publish on a
    thread executor approaches single-provider wall clock) — and
    returns a composite photo ID mapped to the per-provider IDs; a
    partial publish below ``min_success`` providers is rolled back
    (best-effort deletes) and raised, never left half-done, whether
    the failures were serial or concurrent.
    ``download`` serves from the first provider that answers, failing
    over in registration order; :meth:`download_from` pins a provider
    and :meth:`download_quorum` demands byte-identical answers from
    several (meaningful for homogeneous fleets, where one lying or
    bit-rotted provider must not go unnoticed).

    Per-provider ingest wall clock is recorded on every upload
    (:attr:`last_ingest_timings`, cumulative :attr:`ingest_seconds`),
    so callers can report where publish time actually goes.
    """

    _GUARDED_BY = {
        "_routes": "_lock",
        # Timing maps are atomically replaced / monotonically grown
        # under the lock; readers take plain snapshots.
        "last_ingest_timings": "_lock:writes",
        "ingest_seconds": "_lock:writes",
    }

    def __init__(
        self,
        providers: Iterable[PSPBackend],
        *,
        min_success: int | None = None,
        executor: Executor | None = None,
    ) -> None:
        self._providers: dict[str, PSPBackend] = {}
        for provider in providers:
            alias = base = provider.name
            serial = 1
            while alias in self._providers:
                serial += 1
                alias = f"{base}-{serial}"
            self._providers[alias] = provider
        if not self._providers:
            raise ValueError("FanoutPSP needs at least one provider")
        if min_success is None:
            min_success = len(self._providers)
        if not 1 <= min_success <= len(self._providers):
            raise ValueError(
                f"min_success must be in [1, {len(self._providers)}], "
                f"got {min_success}"
            )
        self.min_success = min_success
        self.executor = executor  # None = serial per-provider ingest
        self.name = "fanout(" + ",".join(self._providers) + ")"
        self._routes: dict[str, dict[str, str]] = {}
        self._lock = threading.Lock()  # route map + timing counters
        #: Per-provider ingest seconds of the most recent upload.
        self.last_ingest_timings: dict[str, float] = {}
        #: Cumulative per-provider ingest seconds across all uploads.
        self.ingest_seconds: dict[str, float] = {}

    @property
    def provider_names(self) -> list[str]:
        """Aliases in registration order (duplicates get ``-2`` etc.)."""
        return list(self._providers)

    def provider(self, name: str) -> PSPBackend:
        try:
            return self._providers[name]
        except KeyError:
            raise KeyError(
                f"no provider {name!r}; registered: {self.provider_names}"
            ) from None

    def provider_ids(self, photo_id: str) -> dict[str, str]:
        """The per-provider photo-ID map behind a composite ID."""
        return dict(self._route(photo_id))

    def _route(self, photo_id: str) -> dict[str, str]:
        with self._lock:
            try:
                return self._routes[photo_id]
            except KeyError:
                raise KeyError(f"no photo {photo_id!r}") from None

    def check_access(self, photo_id: str, requester: str) -> None:
        """Delegate the serving tier's access check to the fleet.

        Raises ``KeyError`` for unknown composite IDs; otherwise the
        first routed provider exposing ``check_access`` decides
        (providers that dropped the photo are skipped, mirroring
        download failover).  A provider *without* the hook counts as
        willing to serve — exactly what :meth:`download`'s failover
        would conclude — so a mixed fleet allows what any member would
        have served.
        """
        route = self._route(photo_id)
        unchecked = 0
        for alias, provider_id in route.items():
            checker = getattr(self._providers[alias], "check_access", None)
            if checker is None:
                unchecked += 1
                continue
            try:
                checker(provider_id, requester)
            except KeyError:
                continue  # that replica is gone; ask the next provider
            return
        if unchecked == 0:
            # Every provider enforces a policy and every one has lost
            # the photo: the composite ID is a dangling route, not an
            # allow — without this, a cached variant of a fleet-wide
            # deleted photo would keep serving with no access decision.
            raise KeyError(
                f"no provider still holds photo {photo_id!r}"
            )

    # -- the PSPBackend protocol ---------------------------------------------

    def upload(
        self, data: bytes, owner: str, viewers: set[str] | None = None
    ) -> str:
        providers = list(self._providers.items())

        def ingest(alias: str, provider: PSPBackend) -> tuple[str, float]:
            start = time.perf_counter()
            provider_id = provider.upload(data, owner=owner, viewers=viewers)
            return provider_id, time.perf_counter() - start

        outcomes = run_calls(
            self.executor or _SERIAL_FALLBACK,
            [
                (lambda a=alias, p=provider: ingest(a, p))
                for alias, provider in providers
            ],
        )
        route: dict[str, str] = {}
        errors: dict[str, str] = {}
        timings: dict[str, float] = {}
        for (alias, _), outcome in zip(providers, outcomes):
            if outcome.ok:
                route[alias], timings[alias] = outcome.value
            else:
                errors[alias] = outcome.error
        with self._lock:
            self.last_ingest_timings = dict(timings)
            for alias, seconds in timings.items():
                self.ingest_seconds[alias] = (
                    self.ingest_seconds.get(alias, 0.0) + seconds
                )
        if len(route) < self.min_success:
            # A partial publish would strand replicas that no composite
            # ID ever points at: roll back what landed, then report.
            for alias, provider_id in route.items():
                best_effort_delete(self._providers[alias], provider_id)
            raise FanoutUploadError(
                f"only {len(route)}/{len(self._providers)} providers "
                f"accepted the upload (need {self.min_success}): {errors}"
            )
        digest = hashlib.sha256(
            "|".join(f"{alias}={pid}" for alias, pid in route.items()).encode()
        ).hexdigest()
        photo_id = f"fan-{digest[:16]}"
        with self._lock:
            self._routes[photo_id] = route
        return photo_id

    def download(
        self,
        photo_id: str,
        requester: str,
        resolution: int | None = None,
        crop_box: tuple[int, int, int, int] | None = None,
    ) -> bytes:
        """First-success download with provider-by-provider failover.

        A request that every provider rejects with ``ValueError`` (a
        crop outside the served plane, say) is the caller's error, not
        an outage: the first provider's ``ValueError`` is re-raised, so
        the fleet answers what a lone provider would.
        """
        route = self._route(photo_id)
        errors: dict[str, str] = {}
        rejections: list[ValueError] = []
        for alias, provider_id in route.items():
            try:
                return self._providers[alias].download(
                    provider_id,
                    requester=requester,
                    resolution=resolution,
                    crop_box=crop_box,
                )
            except Exception as error:
                errors[alias] = describe_error(error)
                if isinstance(error, ValueError):
                    rejections.append(error)
        if rejections and len(rejections) == len(route):
            raise rejections[0]
        raise FanoutDownloadError(
            f"all {len(route)} providers failed to serve "
            f"{photo_id!r}: {errors}"
        )

    def download_from(
        self,
        provider_name: str,
        photo_id: str,
        requester: str,
        resolution: int | None = None,
        crop_box: tuple[int, int, int, int] | None = None,
    ) -> bytes:
        """Serve from one named provider — no failover."""
        route = self._route(photo_id)
        if provider_name not in route:
            raise KeyError(
                f"photo {photo_id!r} has no replica on {provider_name!r}; "
                f"published to: {sorted(route)}"
            )
        return self.provider(provider_name).download(
            route[provider_name],
            requester=requester,
            resolution=resolution,
            crop_box=crop_box,
        )

    def download_quorum(
        self,
        photo_id: str,
        requester: str,
        quorum: int = 2,
        resolution: int | None = None,
        crop_box: tuple[int, int, int, int] | None = None,
    ) -> bytes:
        """Byte-agreement download: ``quorum`` providers must concur.

        Providers transcode through private pipelines, so agreement is
        only expected from a homogeneous fleet (several instances of
        the same provider class); heterogeneous fleets raise
        :class:`FanoutError` by construction — which is the point: a
        disagreement means someone served different bytes.
        """
        route = self._route(photo_id)
        if not 1 <= quorum <= len(route):
            raise ValueError(
                f"quorum must be in [1, {len(route)}], got {quorum}"
            )
        payloads: list[bytes] = []
        errors: dict[str, str] = {}
        for alias, provider_id in route.items():
            try:
                payloads.append(
                    self._providers[alias].download(
                        provider_id,
                        requester=requester,
                        resolution=resolution,
                        crop_box=crop_box,
                    )
                )
            except Exception as error:
                errors[alias] = describe_error(error)
                continue
            if len(payloads) == quorum:
                break
        if len(payloads) < quorum:
            raise FanoutDownloadError(
                f"only {len(payloads)}/{quorum} providers answered for "
                f"{photo_id!r}: {errors}"
            )
        if any(payload != payloads[0] for payload in payloads[1:]):
            raise FanoutError(
                f"providers disagree on the bytes of {photo_id!r} "
                "(tampering, bit-rot, or a heterogeneous fleet)"
            )
        return payloads[0]

    # -- lifecycle -------------------------------------------------------------

    def delete(self, photo_id: str) -> None:
        """Best-effort delete on every provider holding the photo."""
        with self._lock:
            route = self._routes.pop(photo_id, None)
        if not route:
            return
        for alias, provider_id in route.items():
            best_effort_delete(self._providers[alias], provider_id)

    def all_photo_ids(self) -> list[str]:
        with self._lock:
            return list(self._routes)

    def __repr__(self) -> str:
        return f"FanoutPSP({', '.join(self.provider_names)})"
