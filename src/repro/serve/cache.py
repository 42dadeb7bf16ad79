"""Thread-safe caches for the serving tier.

One cache family serves all three tiers of the serving engine: the
secret-part and envelope caches are plain LRUs (secret parts never go
stale — the envelope is immutable once published), while the
decoded-variant cache adds a TTL so a long-running gateway eventually
re-fetches what the PSP serves (providers can reprocess stored
photos).  All tiers share the :class:`CacheStats` shape, so hit rates
are comparable across tiers and across front ends sharing one engine.

:class:`PartitionedLRUCache` adds multi-tenant *eviction isolation*:
entries are grouped into partitions (the engine partitions by
album-key digest — see :func:`repro.serve.keys.key_digest`) and each
partition gets an eviction quota, so one viral photo's tenant filling
the cache evicts its own oldest entries rather than every other
tenant's working set — the zipfian-skew failure mode real serving
traces exhibit.  Per-partition hit/miss/eviction stats feed the
gateway's ``/stats``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable


class CacheStats:
    """Monotonic cache counters, safe to bump from many threads.

    Attribute reads are plain (ints are replaced atomically); updates
    go through the internal lock so concurrent serving threads never
    lose increments.
    """

    __slots__ = ("_lock", "hits", "misses", "evictions", "expirations")

    # Counters are written under the lock, read plain (atomic int
    # replacement) — the ":writes" guard mode expresses exactly that.
    _GUARDED_BY = {
        "hits": "_lock:writes",
        "misses": "_lock:writes",
        "evictions": "_lock:writes",
        "expirations": "_lock:writes",
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def _add(self, field: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, int | float]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "hit_rate": round(self.hit_rate, 4),
            }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, expirations={self.expirations})"
        )


class LRUCache:
    """A bounded LRU mapping with optional per-entry TTL.

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
    """

    _GUARDED_BY = {"_entries": "_lock"}

    def __init__(
        self,
        maxsize: int | None,
        *,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        stats: CacheStats | None = None,
        name: str = "cache",
    ) -> None:
        if maxsize is not None and maxsize < 0:
            raise ValueError(f"maxsize must be >= 0 or None, got {maxsize}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive or None, got {ttl}")
        self._maxsize = maxsize
        self.ttl = ttl
        self.clock = clock
        self.stats = stats or CacheStats()
        self.name = name
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[Any, float]] = OrderedDict()

    @property
    def maxsize(self) -> int | None:
        return self._maxsize

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up a key, refreshing its recency; counts hit/miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                value, stamp = entry
                if self.ttl is not None and self.clock() - stamp > self.ttl:
                    self._remove(key)
                    self._bump("expirations", key)
                else:
                    self._entries.move_to_end(key)
                    self._bump("hits", key)
                    return value
            self._bump("misses", key)
            return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh a key, trimming LRU entries past ``maxsize``."""
        with self._lock:
            if self._maxsize == 0:
                return
            self._store(key, value)
            while (
                self._maxsize is not None
                and len(self._entries) > self._maxsize
            ):
                victim = self._victim()
                self._remove(victim)
                self._bump("evictions", victim)

    # -- under-lock internals (subclass seams) --------------------------------

    def _store(self, key: Hashable, value: Any) -> None:  # guarded-by: _lock
        """Insert or refresh one entry; caller holds the lock."""
        if key not in self._entries:
            self._added(key)
        self._entries[key] = (value, self.clock())
        self._entries.move_to_end(key)

    def _remove(self, key: Hashable) -> None:  # guarded-by: _lock
        """Drop one present entry; caller holds the lock."""
        del self._entries[key]
        self._removed(key)

    def _victim(self) -> Hashable:  # guarded-by: _lock
        """The entry a capacity eviction should drop (lock held)."""
        return next(iter(self._entries))

    def _added(self, key: Hashable) -> None:  # guarded-by: _lock
        """Hook: a new key is about to be inserted (lock held)."""

    def _removed(self, key: Hashable) -> None:  # guarded-by: _lock
        """Hook: a key was just removed (lock held)."""

    def _bump(self, field: str, key: Hashable) -> None:  # guarded-by: _lock
        """Count one cache event, attributed to ``key`` (lock held).

        Evictions pass the *evicted* key, so
        :class:`PartitionedLRUCache` charges them to the partition that
        lost the entry, not the one that inserted.
        """
        self.stats._add(field)

    def discard(self, key: Hashable) -> None:
        with self._lock:
            if key in self._entries:
                self._remove(key)

    def clear(self) -> None:
        with self._lock:
            while self._entries:
                self._remove(next(iter(self._entries)))

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

    def __repr__(self) -> str:
        return (
            f"LRUCache(name={self.name!r}, size={len(self)}, "
            f"maxsize={self._maxsize}, ttl={self.ttl})"
        )


class PartitionedLRUCache(LRUCache):
    """An LRU cache with per-partition eviction quotas and stats.

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

    A single-partition workload therefore behaves exactly like
    :class:`LRUCache` (the lone partition is always the over-quota
    one), which is what keeps the paper's one-user-one-proxy deploy
    unchanged.  ``quota_fraction=1.0`` disables isolation while keeping
    per-partition stats; an unbounded cache (``maxsize=None``) has no
    quota either.

    Per-partition :class:`CacheStats` (plus current entry counts) are
    exposed via :meth:`partitions`; evictions are charged to the
    partition that *lost* the entry.
    """

    _GUARDED_BY = {
        "_counts": "_lock",
        "_partition_stats": "_lock",
    }

    def __init__(
        self,
        maxsize: int | None,
        *,
        partition: Callable[[Hashable], Hashable],
        quota_fraction: float = 1.0,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        stats: CacheStats | None = None,
        name: str = "cache",
    ) -> None:
        if not 0.0 < quota_fraction <= 1.0:
            raise ValueError(
                f"quota_fraction must be in (0, 1], got {quota_fraction}"
            )
        super().__init__(
            maxsize, ttl=ttl, clock=clock, stats=stats, name=name
        )
        self.partition_of = partition
        self.quota_fraction = quota_fraction
        self._counts: dict[Hashable, int] = {}
        self._partition_stats: dict[Hashable, CacheStats] = {}

    @property
    def partition_quota(self) -> int | None:
        """Entries per partition protected from cross-partition
        eviction (None = unbounded cache, no quota)."""
        if self._maxsize is None:
            return None
        return max(1, int(self._maxsize * self.quota_fraction))

    # -- under-lock hooks ------------------------------------------------------

    def _victim(self) -> Hashable:  # guarded-by: _lock
        quota = self.partition_quota
        if quota is not None:
            for key in self._entries:  # oldest first
                if self._counts.get(self.partition_of(key), 0) > quota:
                    return key
        return next(iter(self._entries))

    def _added(self, key: Hashable) -> None:  # guarded-by: _lock
        part = self.partition_of(key)
        self._counts[part] = self._counts.get(part, 0) + 1

    def _removed(self, key: Hashable) -> None:  # guarded-by: _lock
        part = self.partition_of(key)
        remaining = self._counts.get(part, 0) - 1
        if remaining > 0:
            self._counts[part] = remaining
        else:
            self._counts.pop(part, None)

    def _bump(self, field: str, key: Hashable) -> None:  # guarded-by: _lock
        super()._bump(field, key)
        part = self.partition_of(key)
        stats = self._partition_stats.get(part)
        if stats is None:
            stats = self._partition_stats.setdefault(part, CacheStats())
        stats._add(field)

    # -- observability ---------------------------------------------------------

    def partitions(self) -> dict[Hashable, dict[str, int | float]]:
        """Per-partition snapshot: stats counters plus current size."""
        with self._lock:
            counts = dict(self._counts)
            stats = dict(self._partition_stats)
        report = {}
        for part in sorted(set(counts) | set(stats), key=str):
            partition_stats = stats.get(part)
            entry = (
                partition_stats.snapshot()
                if partition_stats is not None
                else CacheStats().snapshot()
            )
            entry["entries"] = counts.get(part, 0)
            report[str(part)] = entry
        return report

    def __repr__(self) -> str:
        # Snapshot both sizes in one critical section; len(self) would
        # re-acquire the non-reentrant lock, so read _entries directly.
        with self._lock:
            size = len(self._entries)
            partitions = len(self._counts)
        return (
            f"PartitionedLRUCache(name={self.name!r}, size={size}, "
            f"maxsize={self._maxsize}, quota={self.partition_quota}, "
            f"partitions={partitions}, ttl={self.ttl})"
        )
