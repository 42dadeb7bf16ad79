"""`P3Session`: one object that is the whole P3 client stack.

A session owns the four pieces every caller used to hand-wire — the
keyring, the :class:`~repro.core.config.P3Config`, a PSP backend and a
blob store — and exposes the paper's operations as methods.  It is the
trusted proxy in process (:class:`~repro.system.gateway.P3Gateway` is
the same proxy over HTTP).  Single photos run the pipeline's steps
inline; corpora go through :meth:`batch_upload` /
:meth:`batch_download`, which fan the CPU-bound work out over a
pluggable :class:`~repro.api.executors.Executor` and report per-item
failures instead of dying mid-batch.

Either remote role may also be a *fleet*: :meth:`P3Session.create`
accepts lists (or ``P3Config.psps``/``shards``/``replication``) and
wires up a :class:`~repro.api.fanout.FanoutPSP` /
:class:`~repro.api.fanout.ReplicatedBlobStore`, both of which satisfy
the single-backend protocols — the session never knows the difference.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.api.backends import BlobStore, PSPBackend
from repro.api.executors import Executor, describe_error
from repro.api.pipeline import (
    DecryptTask,
    EncryptTask,
    run_decrypt_task,
    run_encrypt_task,
)
from repro.api.registry import DEFAULT_REGISTRY, BackendRegistry
from repro.core.config import P3Config
from repro.core.encryptor import EncryptedPhoto
from repro.crypto.keyring import Keyring
from repro.serve.engine import ServeRequest, ServingEngine
from repro.system.proxy import publish_encrypted
from repro.system.reverse import TransformEstimate


# -- typed requests and records -----------------------------------------------


@dataclass(frozen=True)
class UploadRequest:
    """One photo to publish: a JPEG or raw pixels, plus sharing intent."""

    album: str
    jpeg: bytes | None = None
    pixels: np.ndarray | None = None
    viewers: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if not self.album:
            raise ValueError("album must be non-empty")
        if (self.jpeg is None) == (self.pixels is None):
            raise ValueError(
                "UploadRequest needs exactly one of jpeg= or pixels="
            )


@dataclass(frozen=True)
class DownloadRequest:
    """One photo to fetch and reconstruct.

    ``provider`` pins the fetch to one named provider of a
    :class:`~repro.api.fanout.FanoutPSP` (no failover) — ``None``
    serves from whichever provider answers first.  A ``public_only``
    request looks up no key, so its ``album`` is unused.
    """

    photo_id: str
    album: str
    resolution: int | None = None
    crop_box: tuple[int, int, int, int] | None = None
    public_only: bool = False
    provider: str | None = None


@dataclass(frozen=True)
class PhotoRecord:
    """What the session knows about a published photo."""

    photo_id: str
    album: str
    psp: str
    public_bytes: int
    secret_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.public_bytes + self.secret_bytes


@dataclass(frozen=True)
class BatchFailure:
    """One failed batch item: which, where in the pipeline, and why."""

    index: int
    stage: str
    error: str


@dataclass
class BatchReport:
    """Outcome of a batch operation.

    ``results`` is aligned with the input order: a
    :class:`PhotoRecord` (uploads) or pixel array (downloads) per
    successful item, ``None`` per failure, with the matching entry in
    ``failures`` saying what went wrong.
    """

    operation: str
    executor: str
    workers: int
    elapsed_s: float = 0.0
    results: list[Any] = field(default_factory=list)
    failures: list[BatchFailure] = field(default_factory=list)
    bytes_public: int = 0
    bytes_secret: int = 0

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def succeeded(self) -> int:
        return self.total - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def throughput(self) -> float:
        """Successfully processed items per second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.succeeded / self.elapsed_s

    def summary(self) -> str:
        return (
            f"{self.operation}: {self.succeeded}/{self.total} ok in "
            f"{self.elapsed_s:.2f}s ({self.throughput:.1f} items/s, "
            f"{self.executor} x{self.workers}, "
            f"{self.bytes_public + self.bytes_secret} bytes)"
        )


def run_sparse_batch(
    executor: "Executor",
    run_task,
    tasks: "list[Any]",
    report: BatchReport,
    stage: str,
) -> list[Any]:
    """Map ``run_task`` over the non-``None`` entries of ``tasks``.

    Entries that are ``None`` (earlier-stage failures) keep their slot;
    results come back aligned with input order, and task failures are
    recorded on ``report`` under ``stage``.  Shared by
    :meth:`P3Session.batch_download` and the batch CLI so the
    index-alignment bookkeeping lives in exactly one place.
    """
    pending = [
        (index, task) for index, task in enumerate(tasks) if task is not None
    ]
    outcomes = executor.map(run_task, [task for _, task in pending])
    results: list[Any] = [None] * len(tasks)
    for (index, _), outcome in zip(pending, outcomes):
        if outcome.ok:
            results[index] = outcome.value
        else:
            report.failures.append(BatchFailure(index, stage, outcome.error))
    return results


# -- backend resolution (single or fleet) -------------------------------------


def _ingest_executor(config: P3Config) -> "Executor | None":
    """The write-path executor the config asks for (None = serial).

    One executor instance is shared by the PSP fan-out and the
    replicated store, so ``ingest_executor="thread"`` overlaps
    per-provider uploads *and* per-replica puts.  Those calls wait on
    the network, not the CPU, so ``ingest_workers=0`` sizes the pool
    like the stdlib's I/O default, ``min(32, cpus + 4)``, rather than
    one per CPU: a 1-CPU host still overlaps a 3-provider publish.
    """
    if config.ingest_executor == "serial":
        return None
    return Executor(
        config.ingest_executor,
        config.ingest_workers or min(32, (os.cpu_count() or 1) + 4),
    )


def _resolve_psp_backend(
    psp: "str | PSPBackend | Sequence[str | PSPBackend] | None",
    config: P3Config,
    registry: BackendRegistry,
    executor: "Executor | None" = None,
) -> PSPBackend:
    """One PSP instance from a name, instance, fleet, or the config.

    Fleet assembly itself lives in
    :meth:`~repro.api.registry.BackendRegistry.create_fanout`.
    """
    if psp is None:
        psp = list(config.psps) or "facebook"
    elif config.psps:
        raise ValueError(
            "psp= and config.psps were both given — drop one; an "
            "explicit backend silently overriding the configured fleet "
            "would be ambiguous"
        )
    if isinstance(psp, str):
        return registry.create_psp(psp)
    if isinstance(psp, (list, tuple)):
        return registry.create_fanout(psp, executor=executor)
    return psp


def _resolve_blob_store(
    storage: "str | BlobStore | Sequence[str | BlobStore] | None",
    config: P3Config,
    registry: BackendRegistry,
    executor: "Executor | None" = None,
) -> BlobStore:
    """One blob store from a name, instance, fleet, or the config.

    A named backend is instantiated ``max(config.shards,
    config.replication)`` times, so asking for replication alone is
    enough to get a fleet that can hold it; fleet assembly itself
    lives in :meth:`~repro.api.registry.BackendRegistry.
    create_storage_pool`.
    """
    if storage is None or isinstance(storage, str):
        count = max(config.shards, config.replication)
        return registry.create_storage_pool(
            storage or "dropbox", count, config.replication, executor
        )
    if isinstance(storage, (list, tuple)):
        if config.shards > 1:
            raise ValueError(
                "storage= list and config.shards were both given — the "
                "list already fixes the shard count"
            )
        return registry.create_storage_pool(
            list(storage), None, config.replication, executor
        )
    if config.shards > 1 or config.replication > 1:
        raise ValueError(
            "a ready storage instance cannot be sharded/replicated "
            "after the fact — pass backend names (or a list of stores) "
            "for config.shards/config.replication to apply"
        )
    return storage


# -- the session itself -------------------------------------------------------


class P3Session:
    """The trusted proxy in process: keyring + config + PSP + storage,
    with one serving engine for every read."""

    def __init__(
        self,
        keyring: Keyring,
        psp: PSPBackend,
        storage: BlobStore,
        config: P3Config | None = None,
        transform_estimate: TransformEstimate | None = None,
        engine: ServingEngine | None = None,
    ) -> None:
        self.keyring = keyring
        self.psp = psp
        self.storage = storage
        self.config = config or P3Config()
        # The session's whole read path — single downloads, provider-
        # pinned fetches, the batch pipeline's fetch stage — runs on
        # one ServingEngine, its caches sized by the config.  Viewer
        # sessions share it (shared caches, shared coalescing), which
        # is exactly the multi-user story.
        self.engine = engine or ServingEngine(
            psp, storage, self.config, transform_estimate=transform_estimate
        )
        self.transform_estimate = self.engine.transform_estimate

    @classmethod
    def create(
        cls,
        psp: "str | PSPBackend | Sequence[str | PSPBackend] | None" = None,
        storage: "str | BlobStore | Sequence[str | BlobStore] | None" = None,
        *,
        user: str = "me",
        config: P3Config | None = None,
        keyring: Keyring | None = None,
        registry: BackendRegistry | None = None,
        transform_estimate: TransformEstimate | None = None,
    ) -> "P3Session":
        """Build a session from backend *names* (or ready instances).

        Either role also accepts a *list* — several PSPs become a
        :class:`~repro.api.fanout.FanoutPSP` publishing every photo to
        each of them, several blob stores a
        :class:`~repro.api.fanout.ReplicatedBlobStore` holding
        ``config.replication`` copies of every envelope.  With ``psp=
        None``/``storage=None`` the config decides: ``config.psps``
        names the provider fleet (default: ``"facebook"`` alone) and
        ``config.shards``/``config.replication`` size the store fleet
        (default: one ``"dropbox"``).
        """
        registry = registry or DEFAULT_REGISTRY
        config = config or P3Config()
        ingest = _ingest_executor(config)
        return cls(
            keyring or Keyring(user),
            _resolve_psp_backend(psp, config, registry, ingest),
            _resolve_blob_store(storage, config, registry, ingest),
            config=config,
            transform_estimate=transform_estimate,
        )

    @property
    def user(self) -> str:
        return self.keyring.owner

    def viewer(self, user: str) -> "P3Session":
        """A recipient session on the same PSP/storage, empty keyring.

        Viewer sessions share this session's serving engine, so many
        viewers share one reconstruction and one cache — the
        multi-tenant behaviour the gateway builds on.
        """
        return P3Session(
            Keyring(user),
            self.psp,
            self.storage,
            config=self.config,
            transform_estimate=self.transform_estimate,
            engine=self.engine,
        )

    def share(self, album: str, recipient: "P3Session | Keyring") -> None:
        """Hand the album key to another participant (out of band)."""
        target = (
            recipient.keyring
            if isinstance(recipient, P3Session)
            else recipient
        )
        self.keyring.share_with(target, album)

    # -- single-photo operations ----------------------------------------------

    def upload(
        self,
        item: "UploadRequest | bytes | np.ndarray",
        album: str | None = None,
        viewers: Iterable[str] | None = None,
    ) -> PhotoRecord:
        """Publish one photo: :meth:`batch_upload`'s encrypt task and
        publish step, run inline."""
        request = self._as_upload_request(item, album, viewers)
        return self._publish(
            request, run_encrypt_task(self._encrypt_task(request))
        )

    def download(
        self,
        item: "DownloadRequest | str",
        album: str | None = None,
        resolution: int | None = None,
        crop_box: tuple[int, int, int, int] | None = None,
    ) -> np.ndarray:
        """Fetch + reconstruct one photo via the serving engine.

        Every flavour — keyed, public-only, provider-pinned — runs the
        single engine path (three-tier cache, coalescing, timing), so
        outputs are byte-for-byte the same wherever they are served
        from.  The caller owns the returned array: it is a writable
        copy of the engine's read-only cached pixels, so writing to it
        cannot change what the next download returns.
        """
        request = self._as_download_request(item, album, resolution, crop_box)
        # _serve_request already ran the PSP access check.
        return self.engine.serve(
            self._serve_request(request), preauthorized=True
        ).pixels.copy()

    def download_public_only(
        self, photo_id: str, resolution: int | None = None
    ) -> np.ndarray:
        """What a viewer without the album key sees."""
        return self.download(
            DownloadRequest(photo_id, "", resolution, public_only=True)
        )

    # -- batch operations (the executor path) ---------------------------------

    def batch_upload(
        self,
        corpus: Iterable["UploadRequest | bytes | np.ndarray"],
        album: str | None = None,
        viewers: Iterable[str] | None = None,
        executor: "Executor | str | None" = None,
    ) -> BatchReport:
        """Publish a corpus: parallel encrypt, then serial PSP ingest.

        The encode/split/seal stage — the CPU-bound bulk of the work —
        runs on the executor; the PSP upload and secret-part put run in
        the parent where the backend objects live.  Public JPEG bytes
        are identical whichever executor runs the batch.
        """
        executor = self._resolve_executor(executor)
        requests = [
            self._as_upload_request(item, album, viewers) for item in corpus
        ]
        report = BatchReport(
            operation="batch_upload",
            executor=executor.kind,
            workers=executor.workers,
        )
        start = time.perf_counter()
        tasks = [self._encrypt_task(request) for request in requests]
        outcomes = executor.map(run_encrypt_task, tasks)
        for request, outcome in zip(requests, outcomes):
            if not outcome.ok:
                report.results.append(None)
                report.failures.append(
                    BatchFailure(outcome.index, "encrypt", outcome.error)
                )
                continue
            try:
                record = self._publish(request, outcome.value)
            except Exception as error:
                report.results.append(None)
                report.failures.append(
                    BatchFailure(outcome.index, "publish", describe_error(error))
                )
                continue
            report.results.append(record)
            report.bytes_public += record.public_bytes
            report.bytes_secret += record.secret_bytes
        report.elapsed_s = time.perf_counter() - start
        return report

    def batch_download(
        self,
        items: Iterable["DownloadRequest | str"],
        album: str | None = None,
        resolution: int | None = None,
        executor: "Executor | str | None" = None,
    ) -> BatchReport:
        """Fetch a corpus: serial PSP/storage reads, parallel reconstruct.

        Reconstruction uses the serving engine's core
        (:func:`~repro.serve.reconstruct.reconstruct_served`) — including
        the session's transform estimate, which pickles to worker
        processes — so outputs are byte-identical to one-at-a-time
        downloads and across executors.
        """
        executor = self._resolve_executor(executor)
        requests = [
            self._as_download_request(item, album, resolution, None)
            for item in items
        ]
        report = BatchReport(
            operation="batch_download",
            executor=executor.kind,
            workers=executor.workers,
        )
        start = time.perf_counter()
        tasks: list[DecryptTask | None] = []
        for index, request in enumerate(requests):
            try:
                tasks.append(self._fetch_task(request))
            except Exception as error:
                tasks.append(None)
                report.failures.append(
                    BatchFailure(index, "fetch", describe_error(error))
                )
        report.results = run_sparse_batch(
            executor, run_decrypt_task, tasks, report, stage="reconstruct"
        )
        for task, result in zip(tasks, report.results):
            if result is not None:
                report.bytes_public += len(task.public_jpeg)
                report.bytes_secret += len(task.secret_envelope or b"")
        report.failures.sort(key=lambda failure: failure.index)
        report.elapsed_s = time.perf_counter() - start
        return report

    # -- internals ------------------------------------------------------------

    def _resolve_executor(
        self, executor: "Executor | str | None"
    ) -> Executor:
        if executor is None:
            executor = self.config.executor
        if isinstance(executor, str):
            return Executor(executor, self.config.workers or None)
        return executor

    def _encrypt_task(self, request: UploadRequest) -> EncryptTask:
        """The encode/split/seal task for one upload; creates the album
        key on first use."""
        return EncryptTask(
            key=self.keyring.ensure_album(request.album),
            config=self.config,
            jpeg=request.jpeg,
            pixels=request.pixels,
        )

    def _publish(
        self, request: UploadRequest, photo: EncryptedPhoto
    ) -> PhotoRecord:
        """PSP upload + secret-part put for one already-split photo.

        Goes through :func:`repro.system.proxy.publish_encrypted`, so a
        failed secret-part put rolls the public part back off the PSP
        instead of stranding an orphan (batch callers report such
        failures under stage ``"publish"``).
        """
        view_set = set(request.viewers) if request.viewers else None
        receipt = publish_encrypted(
            self.psp,
            self.storage,
            photo,
            request.album,
            self.keyring.owner,
            viewers=view_set,
        )
        return PhotoRecord(
            photo_id=receipt.photo_id,
            album=request.album,
            psp=self.psp.name,
            public_bytes=receipt.public_bytes,
            secret_bytes=receipt.secret_bytes,
        )

    def _serve_request(self, request: DownloadRequest) -> ServeRequest:
        """Translate a session-level request for the serving engine.

        The PSP's access verdict is taken before the keyring lookup
        (the interposed order): a stranger is denied by the provider,
        not tripped up by their own missing album key.
        """
        self.engine.check_access(request.photo_id, self.keyring.owner)
        return ServeRequest(
            photo_id=request.photo_id,
            album=None if request.public_only else request.album,
            key=(
                None
                if request.public_only
                else self.keyring.key_for(request.album)
            ),
            requester=self.keyring.owner,
            resolution=request.resolution,
            crop_box=request.crop_box,
            provider=request.provider,
        )

    def _fetch_task(self, request: DownloadRequest) -> DecryptTask:
        """The batch pipeline's fetch stage, on the engine's seam.

        ``_serve_request`` has already taken the PSP's access verdict,
        so the engine-level re-check is skipped (``preauthorized``) —
        one round trip per item, not two.
        """
        return self.engine.fetch_task(
            self._serve_request(request), preauthorized=True
        )

    @staticmethod
    def _as_upload_request(
        item: "UploadRequest | bytes | np.ndarray",
        album: str | None,
        viewers: Iterable[str] | None,
    ) -> UploadRequest:
        if isinstance(item, UploadRequest):
            if album is not None or viewers is not None:
                raise ValueError(
                    "an UploadRequest already carries album/viewers; "
                    "combining it with album=/viewers= kwargs is ambiguous "
                    "— set the fields on the request instead"
                )
            return item
        if album is None:
            raise ValueError("album= is required for raw upload items")
        view_set = frozenset(viewers) if viewers else None
        if isinstance(item, (bytes, bytearray, memoryview)):
            return UploadRequest(
                album=album, jpeg=bytes(item), viewers=view_set
            )
        if isinstance(item, np.ndarray):
            return UploadRequest(album=album, pixels=item, viewers=view_set)
        raise TypeError(
            "upload items must be UploadRequest, JPEG bytes or a pixel "
            f"array, not {type(item).__name__}"
        )

    @staticmethod
    def _as_download_request(
        item: "DownloadRequest | str",
        album: str | None,
        resolution: int | None,
        crop_box: tuple[int, int, int, int] | None,
    ) -> DownloadRequest:
        if isinstance(item, DownloadRequest):
            if (
                album is not None
                or resolution is not None
                or crop_box is not None
            ):
                raise ValueError(
                    "a DownloadRequest already carries album/resolution/"
                    "crop_box; combining it with overriding kwargs is "
                    "ambiguous — set the fields on the request instead"
                )
            return item
        if not isinstance(item, str):
            raise TypeError(
                "download items must be DownloadRequest or a photo-ID "
                f"string, not {type(item).__name__}"
            )
        if album is None:
            raise ValueError("album= is required for photo-ID items")
        return DownloadRequest(
            photo_id=item,
            album=album,
            resolution=resolution,
            crop_box=crop_box,
        )

    def __repr__(self) -> str:
        return (
            f"P3Session(user={self.keyring.owner!r}, psp={self.psp.name!r}, "
            f"executor={self.config.executor!r})"
        )
