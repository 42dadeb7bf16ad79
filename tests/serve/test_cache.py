"""Tests for the serving tier's LRU+TTL cache and its stats."""

import sys
import threading

import pytest

from repro.serve.cache import PartitionedLRUCache
from repro.serve.stats import StatsRecorder


def lru(maxsize, **kwargs):
    """A one-partition cache: a plain LRU."""
    return PartitionedLRUCache(maxsize, partition=lambda key: "all", **kwargs)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestEviction:
    def test_lru_eviction_order(self):
        cache = lru(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a", the least recently used
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert cache.stats.count("evictions") == 1

    def test_get_refreshes_recency(self):
        cache = lru(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "a" is now the most recent
        cache.put("c", 3)  # so "b" is the victim
        assert "a" in cache
        assert "b" not in cache

    def test_put_refreshes_recency(self):
        cache = lru(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_unbounded_and_disabled(self):
        unbounded = lru(None)
        for index in range(500):
            unbounded.put(index, index)
        assert len(unbounded) == 500

        disabled = lru(0)
        disabled.put("a", 1)
        assert len(disabled) == 0
        assert disabled.get("a") is None
        assert disabled.stats.count("misses") == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="maxsize"):
            lru(-1)
        with pytest.raises(ValueError, match="ttl"):
            lru(4, ttl=0)


class TestTTL:
    def test_entries_expire_lazily(self):
        clock = FakeClock()
        cache = lru(8, ttl=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(9.9)
        assert cache.get("a") == 1  # still fresh
        clock.advance(0.2)  # now 10.1s old
        assert cache.get("a") is None
        assert cache.stats.count("expirations") == 1
        assert cache.stats.count("evictions") == 0  # expiry is not an eviction

    def test_put_resets_the_clock(self):
        clock = FakeClock()
        cache = lru(8, ttl=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(8.0)
        cache.put("a", 2)  # re-stamped
        clock.advance(8.0)
        assert cache.get("a") == 2

    def test_contains_is_ttl_aware_and_silent(self):
        clock = FakeClock()
        cache = lru(8, ttl=10.0, clock=clock)
        cache.put("a", 1)
        assert "a" in cache
        clock.advance(11.0)
        assert "a" not in cache
        # Membership checks never touch the counters.
        assert cache.stats.count("hits") == 0
        assert cache.stats.count("misses") == 0

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = lru(8, ttl=None, clock=clock)
        cache.put("a", 1)
        clock.advance(1e9)
        assert cache.get("a") == 1


class TestStats:
    def test_hit_miss_accounting(self):
        cache = lru(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        snapshot = cache.snapshot()
        assert snapshot["hits"] == 2
        assert snapshot["misses"] == 1
        assert snapshot["hits"] + snapshot["misses"] == 3
        assert snapshot["hit_rate"] == pytest.approx(2 / 3, abs=1e-4)

    def test_snapshot_is_json_shaped(self):
        cache = lru(4)
        for _ in range(3):
            cache.stats.record("hits")
        cache.stats.record("misses")
        snapshot = cache.snapshot()
        assert snapshot["hits"] == 3
        assert snapshot["misses"] == 1
        assert 0.0 <= snapshot["hit_rate"] <= 1.0

    def test_concurrent_increments_are_exact(self):
        stats = StatsRecorder()

        def bump():
            for _ in range(1000):
                stats.record("hits")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.count("hits") == 8000


class TestConcurrency:
    def test_hammer_put_get_never_corrupts(self):
        cache = lru(32)
        errors = []

        def worker(seed: int) -> None:
            try:
                for index in range(300):
                    key = (seed * index) % 64
                    cache.put(key, key)
                    value = cache.get(key)
                    assert value is None or value == key
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(1, 7)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 32

    def test_counts_are_exact_under_contention(self):
        """Every lookup is counted exactly once, globally and in its
        partition, although the counting shares the cache's lock: eight
        threads on two cores with a 1 us switch interval would lose
        updates to an unguarded count."""
        cache = PartitionedLRUCache(
            16, partition=lambda key: key[0], quota_fraction=0.5
        )
        lookups = 2000

        def worker(part: str) -> None:
            for index in range(lookups):
                cache.put((part, index % 12), index)
                cache.get((part, (index * 7) % 12))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(part,))
                for part in "abcdefgh"
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = cache.snapshot()
        assert total["hits"] + total["misses"] == 8 * lookups
        report = cache.partitions()
        for event in ("hits", "misses", "evictions"):
            assert sum(part[event] for part in report.values()) == total[event]
        for part in report.values():
            assert part["hits"] + part["misses"] == lookups


class TestPartitionedCache:
    @staticmethod
    def build(maxsize, quota_fraction=0.5, **kwargs):
        return PartitionedLRUCache(
            maxsize,
            partition=lambda key: key[0],
            quota_fraction=quota_fraction,
            **kwargs,
        )

    def test_quota_fraction_validation(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="quota_fraction"):
                self.build(8, quota_fraction=bad)

    def test_single_partition_degrades_to_plain_lru(self):
        """One tenant (the paper's one-user-one-proxy deploy) must see
        exactly the plain LRU eviction order, quota or no quota."""
        plain = lru(3)
        partitioned = self.build(3, quota_fraction=0.5)
        for index in range(6):
            plain.put(("a", index), index)
            partitioned.put(("a", index), index)
        plain.get(("a", 3))
        partitioned.get(("a", 3))
        plain.put(("a", 6), 6)
        partitioned.put(("a", 6), 6)
        assert partitioned.keys() == plain.keys()
        assert plain.keys() == [("a", 5), ("a", 3), ("a", 6)]
        assert (
            partitioned.stats.count("evictions")
            == plain.stats.count("evictions")
            == 4
        )

    def test_hot_partition_cannot_evict_protected_tenant(self):
        """The flood scenario: tenant b's within-quota working set
        survives tenant a inserting far more than the whole cache."""
        cache = self.build(8, quota_fraction=0.5)  # quota: 4 entries
        for index in range(4):
            cache.put(("b", index), index)
        for index in range(100):
            cache.put(("a", index), index)
        survivors = [key for key in cache.keys() if key[0] == "b"]
        assert len(survivors) == 4  # b untouched, at quota
        assert len(cache) == 8  # a holds the rest
        # Every eviction was charged to the flooding partition.
        report = cache.partitions()
        assert report["b"]["evictions"] == 0
        assert report["a"]["evictions"] == 96

    def test_over_quota_partition_reclaims_its_own_excess(self):
        """While capacity is free a partition may exceed its quota;
        once full, its own oldest entries go first."""
        cache = self.build(8, quota_fraction=0.5)
        for index in range(8):
            cache.put(("a", index), index)  # soft: fills the cache
        assert len(cache) == 8
        cache.put(("b", 0), 0)
        # a was over quota, so a's oldest entry paid for b's insert.
        assert ("a", 0) not in cache
        assert ("b", 0) in cache

    def test_global_lru_when_no_partition_over_quota(self):
        cache = self.build(4, quota_fraction=0.5)  # quota: 2 each
        cache.put(("a", 0), 0)
        cache.put(("b", 0), 0)
        cache.put(("c", 0), 0)
        cache.put(("d", 0), 0)
        cache.put(("e", 0), 0)  # nobody over quota: plain LRU
        assert ("a", 0) not in cache
        assert len(cache) == 4

    def test_quota_scales_with_maxsize(self):
        assert self.build(8, quota_fraction=0.5).partition_quota == 4
        assert self.build(4, quota_fraction=0.5).partition_quota == 2
        assert self.build(None, quota_fraction=0.5).partition_quota is None

    def test_partitions_report_includes_stat_free_partitions(self):
        cache = self.build(8)
        cache.put(("a", 0), 0)
        cache.get(("a", 0))
        cache.get(("b", 0))  # miss in a partition with no entries
        report = cache.partitions()
        assert report["a"]["hits"] == 1
        assert report["a"]["entries"] == 1
        assert report["b"]["misses"] == 1
        assert report["b"]["entries"] == 0

    def test_partition_counts_track_discard_and_clear(self):
        cache = self.build(8)
        cache.put(("a", 0), 0)
        cache.put(("a", 1), 1)
        cache.discard(("a", 0))
        assert cache.partitions()["a"]["entries"] == 1
        cache.clear()
        # No entries and no recorded events: the partition drops out
        # of the report entirely rather than lingering as a zero row.
        assert cache.partitions().get("a", {}).get("entries", 0) == 0

    def test_hammer_partitions_never_corrupt(self):
        cache = self.build(16, quota_fraction=0.25)
        errors = []

        def worker(part: str) -> None:
            try:
                for index in range(300):
                    cache.put((part, index % 24), index)
                    cache.get((part, (index * 7) % 24))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(part,))
            for part in ("a", "b", "c", "d", "e")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 16
        # Internal per-partition counts must agree with the entries.
        report = cache.partitions()
        live: dict[str, int] = {}
        for key in cache.keys():
            live[key[0]] = live.get(key[0], 0) + 1
        for part, count in live.items():
            assert report[part]["entries"] == count


class TestReprThreadSafety:
    """Regression: repr used to read the partition table outside the
    lock (flagged by relint's lock-discipline rule), racing dict
    mutation from concurrent put/evict and able to observe a
    mid-rebalance size.  It must snapshot under the lock."""

    def test_repr_reports_consistent_counts(self):
        cache = PartitionedLRUCache(8, partition=lambda key: key[0])
        cache.put(("a", 1), 1)
        cache.put(("b", 2), 2)
        text = repr(cache)
        assert "size=2" in text
        assert "partitions=2" in text

    def test_hammer_repr_during_mutation(self):
        cache = PartitionedLRUCache(
            16, partition=lambda key: key[0], quota_fraction=0.25
        )
        errors: list[Exception] = []
        stop = threading.Event()

        def mutate(part: str) -> None:
            try:
                index = 0
                while not stop.is_set():
                    cache.put((part, index % 32), index)
                    index += 1
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def read_repr() -> None:
            try:
                for _ in range(400):
                    repr(cache)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        writers = [
            threading.Thread(target=mutate, args=(part,))
            for part in ("a", "b", "c")
        ]
        readers = [threading.Thread(target=read_repr) for _ in range(3)]
        for thread in writers + readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
        stop.set()
        for thread in writers:
            thread.join(timeout=60)
        assert not errors
