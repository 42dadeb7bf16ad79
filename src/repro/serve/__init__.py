"""`repro.serve` — the concurrent serving tier of the P3 read path.

Everything a download needs lives here, shared by every caller:

* :mod:`repro.serve.reconstruct` — the single reconstruction core
  (:func:`reconstruct_served`), used by the session layer, the batch
  pipeline and the gateway alike;
* :class:`ServingEngine` — the request path: a three-tier cache,
  single-flight coalescing of concurrent identical requests,
  per-request stage timings, PSP access enforcement on cache hits and
  batch fetches, and one cold-serve path that reads the secret part
  through tier 2 and reconstructs on the request's thread;
* :mod:`repro.serve.keys` — the tier's identity space:
  :func:`secret_blob_key` (where an envelope lives in storage) and
  :func:`key_digest` (the album-key fingerprint that namespaces and
  *partitions* every cache);
* :class:`PartitionedLRUCache` / :class:`SingleFlight` — the building
  blocks, reusable on their own;
* :class:`StatsRecorder` (:mod:`repro.serve.stats`) — the one stats
  store: named counters and bounded latency windows behind one lock.
  The engine, the async front end and each cache tier keep one and
  build their part of ``/stats`` from it, with one nearest-rank
  :func:`~repro.serve.stats.percentile`;
* :mod:`repro.serve.trace` — workload traces: the flat zipfian draw
  for cache benchmarks plus *timed* scenarios (diurnal day curve,
  flash-crowd spike, thundering herd) drawn from million-user tenant
  populations;
* :mod:`repro.serve.replay` — open-loop async / closed-loop sync
  trace replayers with SHA-256 byte-identity digests per response;
* :mod:`repro.serve.admission` + :mod:`repro.serve.async_gateway` —
  the overload-protection layer and the asyncio front end it guards
  (see *Overload protection* below).

The three cache tiers, top to bottom:

1. **decoded-variant** (LRU + TTL) — finished reconstructions, keyed
   by photo/album/key-digest/geometry/provider.  A hit skips
   everything.
2. **secret-part** (LRU) — decrypted
   :class:`~repro.core.serialization.SecretPart` objects, keyed by
   album/photo/key-digest.  A hit skips the storage fetch and the
   envelope decrypt (a new resolution of a seen photo).
3. **secret-envelope** (LRU) — the raw encrypted bytes exactly as
   fetched from storage, keyed by album/photo.  Shared by interactive
   serves *and* ``batch_download``'s fetch stage (whose
   reconstructions happen in worker processes and need bytes, not
   Python objects), so the batch path hits and populates the same
   tier the serve path does.  A true miss still reaches storage and
   exercises read-repair on replicated stores.

All three tiers are sized by :class:`~repro.core.config.P3Config`
(``variant_cache``/``variant_ttl_s``, ``secret_cache``,
``envelope_cache``).  Every tier is partitioned — by tenant-key digest
for tiers 1-2, by album for tier 3 — with a protected per-partition
quota (``P3Config.cache_partition_quota``, default half the cache): a
partition within its quota can never be evicted by another partition's
inserts, so one viral photo cannot flush every other tenant's working
set.  Per-partition hit/miss/eviction stats surface in
``engine.snapshot()`` and the gateway's ``/stats``.

**Overload protection.**  The asyncio front end
(:class:`~repro.serve.async_gateway.AsyncGateway`, built over the
sync :class:`~repro.system.gateway.P3Gateway`) multiplexes thousands
of in-flight requests on one event loop: variant-cache hits are
answered inline (:meth:`ServingEngine.serve_cached`), cold
reconstructions run on a bounded offload thread pool where the
engine's single-flight coalescing works across coroutines unchanged.
Between the loop and the pool sits the admission pipeline
(:class:`~repro.serve.admission.AdmissionController`), in decision
order:

1. **per-tenant token bucket** (``P3Config.tenant_rps``, 0 = off) —
   spends only when a request would consume reconstruction capacity;
   cache hits and degraded previews are never rate-limited;
2. **in-flight cap** (``P3Config.max_inflight``) — concurrent
   reconstruction slots; a freed slot transfers directly to the
   oldest live waiter;
3. **bounded deadline queue** (capacity 4x the cap,
   ``P3Config.queue_deadline_ms``) — arrivals past capacity wait, but
   never longer than the deadline and never behind an unbounded
   backlog: full queue and expired waiters shed immediately;
4. **graceful degradation** (``P3Config.degrade_mode``) — a shed
   *view* in ``"preview"`` mode (the default) is answered 200 with
   the public-part-only pixels (exactly ``download_public_only``'s
   bytes) and an ``x-p3-degraded: <reason>`` header instead of a 503;
   ``"reject"`` mode and shed *uploads* return 503 + ``retry-after``.
   Previews bypass admission entirely — a flash crowd's worth of
   shed viewers coalesces into one public-part decode.

Every decision is visible through the gateway's ``/stats``:
admitted/loop-hit/shed-by-reason/degraded counters, queue-depth
high-water mark, and separate p50/p99/p999 for admitted serves vs
degraded fallbacks.  ``benchmarks/bench_async_serving.py`` replays
trace scenarios against the whole stack and is the acceptance harness
(sync-vs-async throughput, flash-crowd tail bounds, herd coalescing
— every admitted response byte-verified against a reference
reconstruction).

**Concurrency discipline.**  The tier is built for many threads
sharing one engine, and the rules are mechanical enough to be
machine-checked — ``python -m tools.relint src/repro`` enforces them
in CI (see ``tools/relint/README.md``):

* Every class that creates a lock declares what the lock protects in a
  class-level ``_GUARDED_BY`` map (``{"_entries": "_lock"}``); guarded
  attributes are only touched inside ``with self._lock``.  Counter
  attributes use the ``"_lock:writes"`` mode — mutations need the
  lock, snapshot reads of an atomically-replaced int don't.
* Private helpers that assume the lock is already held say so with a
  ``# guarded-by: _lock`` comment on the ``def`` line; relint verifies
  both the assumption and every caller.
* Locks here are **non-reentrant** ``threading.Lock``: never call a
  public method (or ``len(self)``/``repr``) from inside a critical
  section, and never nest two locks without a codebase-wide consistent
  order — relint's lock-order rule fails the build on cycles.
* No blocking work under a lock: storage/PSP I/O, executor fan-out and
  reconstruction happen outside critical sections; the lock only
  guards the bookkeeping around them (the double-checked pattern in
  :class:`SingleFlight` and the caches is the template).

**Privacy discipline.**  The paper's threat model is a boundary: the
PSP (and anything it can see) is honest-but-curious, so raw album
keys, envelope plaintext and secret-part coefficients must never
cross into the public domain.  In this tier that boundary is concrete
and machine-checked by relint's ``taint-*`` dataflow rules (same CI
gate, ``--rule taint``):

* **What is secret**: ``ServeRequest.key``, decrypted
  :class:`~repro.core.serialization.SecretPart` coefficients, raw
  envelope bytes, and anything returned by
  :func:`~repro.crypto.envelope.open_envelope` or ``Keyring.key_for``.
* **Where it must never show up**: PSP ``upload`` calls, cache keys
  and ``SingleFlight`` keys (they surface in partition labels and
  stats), ``snapshot()``/``/stats`` payloads, log/exception/``repr``
  strings, and HTTP headers.  Secret dataclass fields are declared
  ``field(repr=False)`` so the generated ``__repr__`` cannot leak
  them into tracebacks.
* **How secret data legally leaves**: through a sanitizer.
  :func:`key_digest` is the *only* form of an album key that may
  appear in cache keys, stats or messages;
  :func:`~repro.crypto.envelope.seal_envelope` is the only way secret
  bytes reach storage; and :func:`reconstruct_served` is the
  deliberate declassification point — its pixels are exactly what the
  authorized viewer asked for.

Quickstart::

    from repro.core.config import P3Config
    from repro.serve import ServeRequest, ServingEngine

    # Shared by all viewers; the config sizes its three cache tiers.
    engine = ServingEngine(psp, storage, P3Config(secret_cache=256))
    result = engine.serve(
        ServeRequest(photo_id, album="trip", key=key, requester="bob")
    )
    result.pixels        # reconstructed image, the cache's read-only
                         # array: .copy() it before writing
    result.source        # "reconstructed" | "variant-cache" | "coalesced"
    result.timing        # per-stage wall clock
    engine.snapshot()    # hit rates, p50/p99, per-partition stats
"""

from repro.serve.admission import (
    AdmissionController,
    DeadlineQueue,
    TenantRateLimiter,
    TokenBucket,
)
from repro.serve.cache import PartitionedLRUCache
from repro.serve.engine import (
    ServeRequest,
    ServeResult,
    ServeTiming,
    ServingEngine,
)
from repro.serve.keys import key_digest, secret_blob_key
from repro.serve.reconstruct import build_served_operator, reconstruct_served
from repro.serve.singleflight import SingleFlight
from repro.serve.stats import StatsRecorder

__all__ = [
    "AdmissionController",
    "DeadlineQueue",
    "TenantRateLimiter",
    "TokenBucket",
    "PartitionedLRUCache",
    "SingleFlight",
    "StatsRecorder",
    "ServeRequest",
    "ServeResult",
    "ServeTiming",
    "ServingEngine",
    "key_digest",
    "secret_blob_key",
    "build_served_operator",
    "reconstruct_served",
]
