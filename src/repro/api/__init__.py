"""`repro.api` — the public entry point for P3 as a system.

Quickstart (the whole workflow in five lines)::

    from repro.api import P3Session

    session = P3Session.create(psp="flickr", storage="dropbox", user="alice")
    record = session.upload(jpeg_bytes, album="trip", viewers={"bob"})
    pixels = session.download(record.photo_id, album="trip")
    public = session.download_public_only(record.photo_id)  # key-less view

A :class:`P3Session` owns the keyring, the
:class:`~repro.core.config.P3Config`, a photo-sharing provider and a
blob store: it is the paper's trusted proxy in process, splitting
uploads and reconstructing downloads through one serving engine
(:class:`~repro.system.gateway.P3Gateway` is the same proxy over HTTP).
The two remote roles are *pluggable*: any object satisfying the
:class:`PSPBackend` / :class:`BlobStore` protocols works, and named
backends resolve through the :class:`BackendRegistry` ("facebook",
"flickr", "photobucket" + "dropbox" out of the box) — registering a
new provider is one :func:`register_psp` call.

Corpus-scale traffic goes through the batch pipeline::

    report = session.batch_upload(corpus, album="trip", executor="process")
    print(report.summary())          # throughput, bytes, per-item failures
    images = session.batch_download(
        [r.photo_id for r in report.results if r], album="trip"
    ).results

``batch_*`` fan the CPU-bound encode/split/seal and decode/reconstruct
stages out over an :class:`Executor` of one of the
:data:`EXECUTOR_KINDS` — ``"serial"``, ``"thread"`` or ``"process"``
(selected per call or by ``P3Config.executor``) — and capture failures
per item in a :class:`BatchReport` instead of aborting the batch.
Outputs are byte-identical across kinds.

Multi-backend fleets compose behind the same protocols::

    config = P3Config(
        psps=("facebook", "flickr", "photobucket"), shards=3, replication=2
    )
    session = P3Session.create(user="alice", config=config)
    record = session.upload(jpeg_bytes, album="trip")   # published x3
    pixels = session.download(                          # pin one provider
        DownloadRequest(record.photo_id, "trip", provider="flickr")
    )

A :class:`FanoutPSP` publishes each photo to every provider (rolling
back on partial failure) and fails downloads over provider by
provider; a :class:`ReplicatedBlobStore` spreads the secret parts over
N stores by rendezvous hashing with R replicas and read-repair, so one
wiped or dead store costs nothing.

The package `__init__` resolves its exports lazily (PEP 562): the
system layer imports :mod:`repro.api.backends` for the protocols, and
an eager import of the session/pipeline modules here would close an
import cycle back onto :mod:`repro.system`.
"""

from importlib import import_module

_EXPORTS = {
    # session facade
    "P3Session": "repro.api.session",
    "UploadRequest": "repro.api.session",
    "DownloadRequest": "repro.api.session",
    "PhotoRecord": "repro.api.session",
    "BatchReport": "repro.api.session",
    "BatchFailure": "repro.api.session",
    "run_sparse_batch": "repro.api.session",
    # backend protocols + registry
    "PSPBackend": "repro.api.backends",
    "BlobStore": "repro.api.backends",
    "best_effort_delete": "repro.api.backends",
    # multi-backend composites
    "FanoutPSP": "repro.api.fanout",
    "FanoutError": "repro.api.fanout",
    "FanoutUploadError": "repro.api.fanout",
    "FanoutDownloadError": "repro.api.fanout",
    "ReplicatedBlobStore": "repro.api.fanout",
    "ShardedBlobStore": "repro.api.fanout",
    "rendezvous_order": "repro.api.fanout",
    "BackendRegistry": "repro.api.registry",
    "UnknownBackendError": "repro.api.registry",
    "DEFAULT_REGISTRY": "repro.api.registry",
    "register_psp": "repro.api.registry",
    "register_storage": "repro.api.registry",
    # executors
    "Executor": "repro.api.executors",
    "TaskOutcome": "repro.api.executors",
    "EXECUTOR_KINDS": "repro.api.executors",
    # picklable pipeline tasks
    "EncryptTask": "repro.api.pipeline",
    "DecryptTask": "repro.api.pipeline",
    "run_encrypt_task": "repro.api.pipeline",
    "run_decrypt_task": "repro.api.pipeline",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
