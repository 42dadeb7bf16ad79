"""Tests for the multi-backend composites (fan-out PSP, replicated stores)."""

import pytest

from repro.api.backends import BlobStore, PSPBackend, best_effort_delete
from repro.api.fanout import (
    FanoutDownloadError,
    FanoutError,
    FanoutPSP,
    FanoutUploadError,
    ReplicatedBlobStore,
    ShardedBlobStore,
    rendezvous_order,
)
from repro.system.storage import CloudStorage


class MemoryPSP:
    """Minimal conforming provider: stores uploads verbatim."""

    def __init__(self, name: str = "mem") -> None:
        self.name = name
        self.photos: dict[str, bytes] = {}
        self._counter = 0

    def upload(self, data, owner, viewers=None) -> str:
        self._counter += 1
        photo_id = f"{self.name}-{self._counter}"
        self.photos[photo_id] = bytes(data)
        return photo_id

    def download(self, photo_id, requester, resolution=None, crop_box=None):
        return self.photos[photo_id]

    def delete(self, photo_id) -> None:
        self.photos.pop(photo_id, None)


class DeadPSP:
    """A provider whose every call fails (an outage)."""

    name = "dead"

    def upload(self, data, owner, viewers=None) -> str:
        raise IOError("provider is down")

    def download(self, photo_id, requester, resolution=None, crop_box=None):
        raise IOError("provider is down")

    def delete(self, photo_id):
        raise IOError("provider is down")


class DeadStore:
    """A blob store whose every call fails (an outage)."""

    name = "dead"

    def put(self, key, blob):
        raise IOError("store is down")

    def get(self, key):
        raise IOError("store is down")

    def exists(self, key):
        raise IOError("store is down")

    def delete(self, key):
        raise IOError("store is down")


class TestRendezvousOrder:
    def test_deterministic_permutation(self):
        order = rendezvous_order("p3/trip/abc.secret", 5)
        assert sorted(order) == list(range(5))
        assert order == rendezvous_order("p3/trip/abc.secret", 5)

    def test_adding_a_store_preserves_relative_order(self):
        """HRW property: growing the fleet only inserts the new index."""
        before = rendezvous_order("some-key", 4)
        after = rendezvous_order("some-key", 5)
        assert [i for i in after if i != 4] == before

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            rendezvous_order("k", 0)


class TestReplicatedBlobStore:
    def _fleet(self, count=4, replicas=2):
        stores = [CloudStorage(name=f"s{i}") for i in range(count)]
        return ReplicatedBlobStore(stores, replicas=replicas), stores

    def test_satisfies_protocol(self):
        replicated, _ = self._fleet()
        assert isinstance(replicated, BlobStore)

    def test_put_writes_exactly_r_replicas(self):
        replicated, stores = self._fleet()
        replicated.put("k", b"blob")
        holders = [i for i, s in enumerate(stores) if s.exists("k")]
        assert holders == sorted(replicated.replica_indices("k"))
        assert len(holders) == 2

    def test_get_roundtrip_and_missing_key(self):
        replicated, _ = self._fleet()
        replicated.put("k", b"blob")
        assert replicated.get("k") == b"blob"
        assert replicated.exists("k")
        with pytest.raises(KeyError):
            replicated.get("nope")

    def test_put_falls_past_dead_store(self):
        """A dead store degrades placement, never the publish."""
        stores = [CloudStorage(), DeadStore(), CloudStorage()]
        replicated = ReplicatedBlobStore(stores, replicas=2)
        for index in range(16):
            replicated.put(f"key-{index}", b"x" * index)
        for index in range(16):
            assert replicated.get(f"key-{index}") == b"x" * index

    def test_put_requires_one_surviving_store(self):
        replicated = ReplicatedBlobStore([DeadStore(), DeadStore()], replicas=2)
        with pytest.raises(FanoutError, match="no store accepted"):
            replicated.put("k", b"blob")

    def test_read_repair_heals_wiped_replica(self):
        replicated, stores = self._fleet()
        replicated.put("k", b"blob")
        victim = replicated.replica_indices("k")[0]
        stores[victim].delete("k")
        assert replicated.get("k") == b"blob"
        assert replicated.repairs == 1
        assert stores[victim].exists("k")
        # Healed: the next read repairs nothing further.
        assert replicated.get("k") == b"blob"
        assert replicated.repairs == 1

    def test_delete_sweeps_every_store(self):
        replicated, stores = self._fleet()
        replicated.put("k", b"blob")
        replicated.delete("k")
        assert not replicated.exists("k")
        assert all(not store.exists("k") for store in stores)

    def test_keys_union(self):
        replicated, _ = self._fleet(count=3, replicas=1)
        replicated.put("a", b"1")
        replicated.put("b", b"2")
        assert replicated.keys() == ["a", "b"]

    def test_replicas_bounds(self):
        with pytest.raises(ValueError):
            ReplicatedBlobStore([CloudStorage()], replicas=2)
        with pytest.raises(ValueError):
            ReplicatedBlobStore([], replicas=1)


class TestShardedBlobStore:
    def test_each_key_on_exactly_one_store(self):
        stores = [CloudStorage(name=f"s{i}") for i in range(4)]
        sharded = ShardedBlobStore(stores)
        for index in range(32):
            sharded.put(f"key-{index}", bytes([index]))
        placements = [
            sum(store.exists(f"key-{index}") for store in stores)
            for index in range(32)
        ]
        assert placements == [1] * 32
        # Stable hashing spreads keys over the whole fleet.
        assert all(len(store.keys()) > 0 for store in stores)

    def test_roundtrip(self):
        sharded = ShardedBlobStore([CloudStorage(), CloudStorage()])
        sharded.put("k", b"blob")
        assert sharded.get("k") == b"blob"
        assert sharded.replicas == 1


class TestFanoutUpload:
    def test_fans_out_to_every_provider(self):
        providers = [MemoryPSP("a"), MemoryPSP("b"), MemoryPSP("c")]
        fanout = FanoutPSP(providers)
        photo_id = fanout.upload(b"jpeg-bytes", owner="alice")
        assert photo_id.startswith("fan-")
        route = fanout.provider_ids(photo_id)
        assert sorted(route) == ["a", "b", "c"]
        for provider in providers:
            assert list(provider.photos.values()) == [b"jpeg-bytes"]

    def test_satisfies_protocol(self):
        assert isinstance(FanoutPSP([MemoryPSP()]), PSPBackend)

    def test_duplicate_names_are_aliased(self):
        fanout = FanoutPSP([MemoryPSP("mem"), MemoryPSP("mem")])
        assert fanout.provider_names == ["mem", "mem-2"]

    def test_partial_publish_rolls_back(self):
        """Below min_success nothing may survive anywhere (RADON rule)."""
        live_a, live_b = MemoryPSP("a"), MemoryPSP("b")
        fanout = FanoutPSP([live_a, DeadPSP(), live_b])
        with pytest.raises(FanoutUploadError, match="2/3"):
            fanout.upload(b"jpeg-bytes", owner="alice")
        assert live_a.photos == {}
        assert live_b.photos == {}
        assert fanout.all_photo_ids() == []

    def test_min_success_tolerates_outage(self):
        live = MemoryPSP("live")
        fanout = FanoutPSP([DeadPSP(), live], min_success=1)
        photo_id = fanout.upload(b"jpeg-bytes", owner="alice")
        assert fanout.provider_ids(photo_id) == {"live": "live-1"}
        assert fanout.download(photo_id, "alice") == b"jpeg-bytes"

    def test_min_success_bounds(self):
        with pytest.raises(ValueError):
            FanoutPSP([MemoryPSP()], min_success=2)
        with pytest.raises(ValueError):
            FanoutPSP([])


class TestFanoutDownload:
    def _published(self):
        providers = [MemoryPSP("a"), MemoryPSP("b"), MemoryPSP("c")]
        fanout = FanoutPSP(providers)
        photo_id = fanout.upload(b"payload", owner="alice")
        return fanout, providers, photo_id

    def test_first_success_failover(self):
        fanout, providers, photo_id = self._published()
        providers[0].photos.clear()  # provider a lost the photo
        assert fanout.download(photo_id, "alice") == b"payload"

    def test_all_providers_failing_is_a_keyerror(self):
        fanout, providers, photo_id = self._published()
        for provider in providers:
            provider.photos.clear()
        with pytest.raises(FanoutDownloadError):
            fanout.download(photo_id, "alice")
        assert issubclass(FanoutDownloadError, KeyError)

    @staticmethod
    def _reject(providers, *indices):
        """Make the chosen providers refuse every request as malformed."""
        for index in indices:

            def download(*args, _name=providers[index].name, **kwargs):
                raise ValueError(f"{_name} rejects the request")

            providers[index].download = download

    def test_request_every_provider_rejects_raises_the_first_rejection(self):
        fanout, providers, photo_id = self._published()
        self._reject(providers, 0, 1, 2)
        with pytest.raises(ValueError, match="a rejects"):
            fanout.download(photo_id, "alice")

    def test_rejections_mixed_with_outages_still_fail_over(self):
        fanout, providers, photo_id = self._published()
        self._reject(providers, 0, 2)
        providers[1].photos.clear()  # b lost the photo: a KeyError
        with pytest.raises(FanoutDownloadError, match="a rejects"):
            fanout.download(photo_id, "alice")

    def test_unknown_photo(self):
        fanout, _, _ = self._published()
        with pytest.raises(KeyError, match="no photo"):
            fanout.download("fan-doesnotexist", "alice")

    def test_download_from_pins_one_provider(self):
        fanout, providers, photo_id = self._published()
        providers[1].photos[fanout.provider_ids(photo_id)["b"]] = b"b-bytes"
        assert fanout.download_from("b", photo_id, "alice") == b"b-bytes"
        with pytest.raises(KeyError, match="no replica"):
            fanout.download_from("z", photo_id, "alice")

    def test_quorum_agreement(self):
        fanout, providers, photo_id = self._published()
        assert fanout.download_quorum(photo_id, "alice", quorum=3) == b"payload"

    def test_quorum_survives_one_outage(self):
        fanout, providers, photo_id = self._published()
        providers[0].photos.clear()
        assert fanout.download_quorum(photo_id, "alice", quorum=2) == b"payload"

    def test_quorum_detects_disagreement(self):
        fanout, providers, photo_id = self._published()
        route = fanout.provider_ids(photo_id)
        providers[1].photos[route["b"]] = b"tampered"
        with pytest.raises(FanoutError, match="disagree"):
            fanout.download_quorum(photo_id, "alice", quorum=2)

    def test_quorum_bounds(self):
        fanout, _, photo_id = self._published()
        with pytest.raises(ValueError):
            fanout.download_quorum(photo_id, "alice", quorum=4)


class TestFanoutLifecycle:
    def test_delete_removes_every_replica(self):
        providers = [MemoryPSP("a"), MemoryPSP("b")]
        fanout = FanoutPSP(providers)
        photo_id = fanout.upload(b"payload", owner="alice")
        fanout.delete(photo_id)
        assert all(provider.photos == {} for provider in providers)
        with pytest.raises(KeyError):
            fanout.download(photo_id, "alice")

    def test_best_effort_delete_helper(self):
        provider = MemoryPSP()
        photo_id = provider.upload(b"x", owner="alice")
        assert best_effort_delete(provider, photo_id)
        assert provider.photos == {}
        assert not best_effort_delete(object(), "x")  # no delete method
        assert not best_effort_delete(DeadPSP(), "x")  # delete raises

    def test_provider_lookup(self):
        provider = MemoryPSP("a")
        fanout = FanoutPSP([provider])
        assert fanout.provider("a") is provider
        with pytest.raises(KeyError, match="registered"):
            fanout.provider("b")
