"""The serving tier's one cache class.

:class:`PartitionedLRUCache` serves all three tiers of the serving
engine: the secret-part and envelope caches are plain LRUs (secret
parts never go stale — the envelope is immutable once published),
while the decoded-variant cache adds a TTL so a long-running gateway
eventually re-fetches what the PSP serves (providers can reprocess
stored photos).  Every tier reports the same counters, so hit rates
are comparable across tiers and across front ends sharing one engine.

The cache adds multi-tenant *eviction isolation*: entries are grouped
into partitions (the engine partitions by album-key digest — see
:func:`repro.serve.keys.key_digest`) and each partition gets an
eviction quota, so one viral photo's tenant filling the cache evicts
its own oldest entries rather than every other tenant's working set —
the zipfian-skew failure mode real serving traces exhibit.  Hits,
misses, evictions and expirations are counted globally and per
partition, under the cache's own lock, in a
:class:`~repro.serve.stats.StatsRecorder`; they feed the gateway's
``/stats``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.serve.stats import StatsRecorder

#: The cache events each tier counts, globally and per partition.
EVENTS = ("hits", "misses", "evictions", "expirations")


def _report(counts: dict[Any, int]) -> dict[str, int | float]:
    """One tier's or one partition's counters plus its hit rate."""
    report: dict[str, int | float] = {
        event: counts.get(event, 0) for event in EVENTS
    }
    lookups = report["hits"] + report["misses"]
    report["hit_rate"] = round(report["hits"] / lookups, 4) if lookups else 0.0
    return report


class PartitionedLRUCache:
    """A bounded LRU mapping with per-partition eviction quotas.

    * ``maxsize=None`` means unbounded; ``maxsize=0`` disables the
      cache entirely (every :meth:`get` misses, :meth:`put` is a
      no-op) — that is how "no variant cache" is expressed without a
      second code path in the engine.  The bound is fixed at
      construction.
    * ``ttl`` (seconds) expires entries lazily: an expired entry is
      dropped — and counted as an expiration, not an eviction — the
      next time it is looked up.  ``ttl=None`` never expires.
    * ``clock`` is injectable (defaults to :func:`time.monotonic`) so
      TTL behaviour is testable without sleeping.

    ``partition`` maps a cache key to its partition label (the serving
    engine partitions by album-key digest, so a partition is "one
    tenant key's working set").  ``quota_fraction`` is each
    partition's *protected share* of ``maxsize``: a partition holding
    at most ``quota_fraction * maxsize`` entries can never be evicted
    by another partition's inserts.  The quota is soft — while the
    cache has spare capacity any partition may grow past it — but once
    the cache is full, the eviction victim is the globally-LRU entry
    of an *over-quota* partition, so a hot tenant flooding the cache
    reclaims its own excess first and only thrashes itself.  Plain
    global LRU is the fallback when no partition is over quota (many
    tenants, all within their shares).

    A single-partition workload therefore behaves exactly like a plain
    LRU (the lone partition is always the over-quota one), which is
    what keeps the paper's one-user-one-proxy deploy unchanged.
    ``quota_fraction=1.0`` disables isolation while keeping
    per-partition stats; an unbounded cache (``maxsize=None``) has no
    quota either.

    :meth:`snapshot` reports the global counters and :meth:`partitions`
    the per-partition ones plus current entry counts; evictions are
    charged to the partition that *lost* the entry.
    """

    _GUARDED_BY = {"_entries": "_lock", "_sizes": "_lock"}

    def __init__(
        self,
        maxsize: int | None,
        *,
        partition: Callable[[Hashable], Hashable],
        quota_fraction: float = 1.0,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        name: str = "cache",
    ) -> None:
        if maxsize is not None and maxsize < 0:
            raise ValueError(f"maxsize must be >= 0 or None, got {maxsize}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive or None, got {ttl}")
        if not 0.0 < quota_fraction <= 1.0:
            raise ValueError(
                f"quota_fraction must be in (0, 1], got {quota_fraction}"
            )
        self._maxsize = maxsize
        self.ttl = ttl
        self.clock = clock
        self.name = name
        self.partition_of = partition
        self.quota_fraction = quota_fraction
        self._lock = threading.Lock()
        # Counted under this cache's own lock: see _count.
        self.stats = StatsRecorder(lock=self._lock)
        self._entries: OrderedDict[Hashable, tuple[Any, float]] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}  # entries per partition

    @property
    def maxsize(self) -> int | None:
        return self._maxsize

    @property
    def partition_quota(self) -> int | None:
        """Entries per partition protected from cross-partition
        eviction (None = unbounded cache, no quota)."""
        if self._maxsize is None:
            return None
        return max(1, int(self._maxsize * self.quota_fraction))

    def get(
        self, key: Hashable, default: Any = None, *, count_miss: bool = True
    ) -> Any:
        """Look up a key, refreshing its recency; counts the hit, or
        the miss unless ``count_miss`` is false."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                value, stamp = entry
                if self.ttl is not None and self.clock() - stamp > self.ttl:
                    self._remove(key)
                    self._count("expirations", key)
                else:
                    self._entries.move_to_end(key)
                    self._count("hits", key)
                    return value
            if count_miss:
                self._count("misses", key)
            return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh a key, trimming LRU entries past ``maxsize``."""
        with self._lock:
            if self._maxsize == 0:
                return
            if key not in self._entries:
                part = self.partition_of(key)
                self._sizes[part] = self._sizes.get(part, 0) + 1
            self._entries[key] = (value, self.clock())
            self._entries.move_to_end(key)
            while (
                self._maxsize is not None
                and len(self._entries) > self._maxsize
            ):
                victim = self._victim()
                self._remove(victim)
                self._count("evictions", victim)

    # -- under-lock internals -------------------------------------------------

    def _remove(self, key: Hashable) -> None:  # guarded-by: _lock
        """Drop one present entry; caller holds the lock."""
        del self._entries[key]
        part = self.partition_of(key)
        remaining = self._sizes[part] - 1
        if remaining:
            self._sizes[part] = remaining
        else:
            del self._sizes[part]

    def _victim(self) -> Hashable:  # guarded-by: _lock
        """The entry a capacity eviction should drop (lock held)."""
        quota = self.partition_quota
        if quota is not None:
            for key in self._entries:  # oldest first
                if self._sizes[self.partition_of(key)] > quota:
                    return key
        return next(iter(self._entries))

    def _count(self, event: str, key: Hashable) -> None:  # guarded-by: _lock
        """Count one cache event, globally and for ``key``'s partition
        (lock held: the recorder shares this cache's lock).

        Evictions pass the *evicted* key, so they are charged to the
        partition that lost the entry, not the one that inserted.
        """
        self.stats.bump(event, (self.partition_of(key), event))

    # -- maintenance ----------------------------------------------------------

    def discard(self, key: Hashable) -> None:
        with self._lock:
            if key in self._entries:
                self._remove(key)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._sizes.clear()

    def keys(self) -> list[Hashable]:
        """Current keys, oldest first (expired entries included until
        they are looked up — expiry is lazy by design)."""
        with self._lock:
            return list(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Non-mutating membership: no recency refresh, no stats."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            if self.ttl is not None and self.clock() - entry[1] > self.ttl:
                return False
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- observability ---------------------------------------------------------

    def snapshot(self) -> dict[str, int | float]:
        """The tier's global counters and hit rate, for ``/stats``."""
        counts, _ = self.stats.snapshot()
        return _report(counts)

    def partitions(self) -> dict[str, dict[str, int | float]]:
        """Per-partition snapshot: stats counters plus current size."""
        with self._lock:
            sizes = dict(self._sizes)
        counts, _ = self.stats.snapshot()
        by_partition: dict[Hashable, dict[str, int]] = {
            part: {} for part in sizes
        }
        for name, value in counts.items():
            if isinstance(name, tuple):
                by_partition.setdefault(name[0], {})[name[1]] = value
        report = {}
        for part in sorted(by_partition, key=str):
            entry = _report(by_partition[part])
            entry["entries"] = sizes.get(part, 0)
            report[str(part)] = entry
        return report

    def __repr__(self) -> str:
        # Snapshot both sizes in one critical section; len(self) would
        # re-acquire the non-reentrant lock, so read _entries directly.
        with self._lock:
            size = len(self._entries)
            partitions = len(self._sizes)
        return (
            f"PartitionedLRUCache(name={self.name!r}, size={size}, "
            f"maxsize={self._maxsize}, quota={self.partition_quota}, "
            f"partitions={partitions}, ttl={self.ttl})"
        )
