"""Configuration for the P3 algorithm."""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's recommended operating range for the threshold (Section 5.2.1:
#: "a threshold between 10-20 might provide a good balance between privacy
#: and storage").
RECOMMENDED_THRESHOLD_RANGE: tuple[int, int] = (10, 20)

#: Default threshold: the knee of the secret-size curve (Figure 5).
DEFAULT_THRESHOLD: int = 15


@dataclass(frozen=True)
class P3Config:
    """Tunable parameters of the P3 sender-side encryption.

    ``threshold`` is the paper's ``T``, in quantized-coefficient units: AC
    coefficients with ``|y| <= T`` stay public; larger ones are clipped to
    ``T`` publicly with the signed excess moved to the secret part.  A
    smaller T gives more privacy but a larger secret part (Figure 5).

    ``quality`` / ``subsampling`` configure the JPEG pipeline the splitter
    is embedded in (used when the input is raw pixels rather than an
    existing JPEG file).  ``optimize_huffman`` enables the two-pass
    entropy-coding optimization, which the paper implicitly uses (it
    reports that splitting *decreases* entropy in both parts, "resulting
    in better compressibility").

    Engines are not configuration: the codec always runs its C kernel
    (see :mod:`repro.jpeg`) and the envelope the vectorized AES.  The
    scalar references they replaced are test oracles under ``tests/``
    (``tests/jpeg/scalar_codec.py``, ``tests/crypto/oracles.py``), not
    options.

    ``executor`` / ``workers`` choose the default
    :class:`~repro.api.executors.Executor` kind for the batch pipeline
    (:meth:`repro.api.session.P3Session.batch_upload` and friends):
    ``"serial"``, ``"thread"`` or ``"process"``, with ``workers=0``
    meaning one worker per CPU for the pooled kinds.  The config stays
    a frozen, picklable value object, so worker processes receive it
    verbatim.

    ``variant_cache`` / ``variant_ttl_s`` / ``secret_cache`` /
    ``envelope_cache`` size the three caches of the serving tier
    (:class:`~repro.serve.engine.ServingEngine`), the only place they
    are set.  Tier 1 keeps finished reconstructions for
    ``variant_ttl_s`` seconds, at most ``variant_cache`` entries
    (``variant_ttl_s=0`` means no expiry); tier 2 keeps at most
    ``secret_cache`` decrypted secret parts; tier 3 keeps at most
    ``envelope_cache`` raw secret *envelopes* (shared by interactive
    serves and ``batch_download``'s fetch stage).  0 disables a tier.

    ``cache_partition_quota`` is the eviction-isolation knob: every
    engine cache is partitioned by album-key digest (tenant key) and
    no single partition may occupy more than this fraction of a
    cache's capacity, so one viral photo's tenant evicts its own
    oldest entries rather than every other tenant's working set.
    ``1.0`` disables isolation (any tenant may fill a cache) while
    keeping per-partition stats.

    ``ingest_executor`` / ``ingest_workers`` make the *write* path
    concurrent: multi-provider fan-out uploads and replicated
    secret-part puts overlap per-provider/per-replica network waits on
    a ``"thread"`` executor (``"serial"``, the default, preserves
    one-at-a-time ingest).  Those calls wait rather than compute, so
    ``ingest_workers=0`` sizes the pool at ``min(32, cpus + 4)``
    threads, not one per CPU.  ``"process"`` is deliberately not
    allowed here — backend state lives in this process.

    ``max_inflight`` / ``tenant_rps`` / ``queue_deadline_ms`` /
    ``degrade_mode`` tune the async front end's overload protection
    (:class:`~repro.serve.async_gateway.AsyncGateway`).  At most
    ``max_inflight`` cache-missing requests are being reconstructed at
    once; arrivals beyond that wait in a bounded admission queue (four
    times ``max_inflight`` deep) for at most ``queue_deadline_ms``
    milliseconds before they are shed.  ``tenant_rps`` is a per-tenant
    token-bucket rate limit on admitted requests (0 = unlimited;
    bursts up to two seconds of budget are allowed).  ``degrade_mode``
    decides what a shed viewer receives: ``"preview"`` (the default —
    the paper-native fallback, a public-part-only reconstruction, the
    same pixels :meth:`~repro.api.session.P3Session.
    download_public_only` produces) or ``"reject"`` (a plain 503).
    The synchronous gateway ignores these fields.

    ``psps`` names several providers to publish every photo to (via a
    :class:`~repro.api.fanout.FanoutPSP`); empty means the single
    provider passed to :meth:`~repro.api.session.P3Session.create`.
    ``shards`` / ``replication`` size the secret-part blob-store fleet:
    named storage is instantiated ``max(shards, replication)`` times
    and wrapped in a :class:`~repro.api.fanout.ReplicatedBlobStore`
    holding ``replication`` copies of every envelope (1 = plain
    sharding) whenever more than one store results.
    """

    threshold: int = DEFAULT_THRESHOLD
    quality: int = 85
    subsampling: str = "4:4:4"
    optimize_huffman: bool = True
    executor: str = "serial"
    workers: int = 0
    psps: tuple[str, ...] = ()
    shards: int = 1
    replication: int = 1
    variant_cache: int = 256
    variant_ttl_s: float = 300.0
    secret_cache: int = 128
    envelope_cache: int = 512
    cache_partition_quota: float = 0.5
    ingest_executor: str = "serial"
    ingest_workers: int = 0
    max_inflight: int = 64
    tenant_rps: float = 0.0
    queue_deadline_ms: float = 250.0
    degrade_mode: str = "preview"

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(
                f"threshold must be >= 1, got {self.threshold}"
            )
        if self.threshold > 2047:
            raise ValueError(
                f"threshold {self.threshold} exceeds the JPEG coefficient "
                "range"
            )
        if not 1 <= self.quality <= 100:
            raise ValueError(f"quality must be in [1, 100], got {self.quality}")
        if self.subsampling not in ("4:4:4", "4:2:2", "4:2:0"):
            raise ValueError(
                f"unknown subsampling mode {self.subsampling!r}"
            )
        if self.executor not in ("serial", "thread", "process"):
            raise ValueError(
                f"unknown executor {self.executor!r}; expected "
                "'serial', 'thread' or 'process'"
            )
        if self.workers < 0:
            raise ValueError(
                f"workers must be >= 0 (0 = one per CPU), got {self.workers}"
            )
        if isinstance(self.psps, str):
            raise ValueError(
                f"psps must be a sequence of provider names, not the "
                f"string {self.psps!r} (did you mean psps=({self.psps!r},)?)"
            )
        # Normalize so configs hash/compare by value whatever sequence
        # type the caller used (the dataclass is frozen, hence setattr).
        object.__setattr__(self, "psps", tuple(self.psps))
        if not all(isinstance(name, str) and name for name in self.psps):
            raise ValueError(
                f"psps must be non-empty provider names, got {self.psps!r}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication}"
            )
        for tier in ("variant_cache", "secret_cache", "envelope_cache"):
            if getattr(self, tier) < 0:
                raise ValueError(
                    f"{tier} must be >= 0 (0 disables the tier), "
                    f"got {getattr(self, tier)}"
                )
        if self.variant_ttl_s < 0:
            raise ValueError(
                f"variant_ttl_s must be >= 0 (0 = no expiry), "
                f"got {self.variant_ttl_s}"
            )
        if not 0.0 < self.cache_partition_quota <= 1.0:
            raise ValueError(
                f"cache_partition_quota must be in (0, 1] (the fraction "
                f"of a cache one tenant may hold; 1.0 = no isolation), "
                f"got {self.cache_partition_quota}"
            )
        if self.ingest_executor not in ("serial", "thread"):
            raise ValueError(
                f"unknown ingest_executor {self.ingest_executor!r}; "
                "expected 'serial' or 'thread' (backend state lives "
                "in-process, so 'process' cannot apply)"
            )
        if self.ingest_workers < 0:
            raise ValueError(
                f"ingest_workers must be >= 0 (0 = automatic), "
                f"got {self.ingest_workers}"
            )
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.tenant_rps < 0:
            raise ValueError(
                f"tenant_rps must be >= 0 (0 = unlimited), "
                f"got {self.tenant_rps}"
            )
        if self.queue_deadline_ms <= 0:
            raise ValueError(
                f"queue_deadline_ms must be > 0 (how long an admitted "
                f"request may queue for a slot), got {self.queue_deadline_ms}"
            )
        if self.degrade_mode not in ("preview", "reject"):
            raise ValueError(
                f"unknown degrade_mode {self.degrade_mode!r}; expected "
                "'preview' (serve the public-part-only fallback when "
                "shedding) or 'reject' (plain 503)"
            )

    @property
    def in_recommended_range(self) -> bool:
        low, high = RECOMMENDED_THRESHOLD_RANGE
        return low <= self.threshold <= high
