"""Tests for the concurrent write path: fan-out ingest, replica puts,
and thread-safety of the shared backends under hammering."""

import os
import threading
import time

import pytest

from repro.api.executors import Executor
from repro.api.fanout import (
    FanoutPSP,
    FanoutUploadError,
    ReplicatedBlobStore,
)
import repro.crypto.keyring as keyring_module
from repro.api.session import P3Session
from repro.core.config import P3Config
from repro.crypto.keyring import Keyring
from repro.jpeg.codec import encode_rgb
from repro.system.psp import FacebookPSP
from repro.system.storage import CloudStorage


class SlowPSP:
    """A protocol-satisfying provider with simulated network latency."""

    def __init__(self, name: str, delay_s: float = 0.05, fail: bool = False):
        self.name = name
        self.delay_s = delay_s
        self.fail = fail
        self.photos: dict[str, bytes] = {}
        self.deletes: list[str] = []
        self._counter = 0
        self._lock = threading.Lock()

    def upload(self, data, owner, viewers=None):
        time.sleep(self.delay_s)
        if self.fail:
            raise IOError(f"{self.name} is down")
        with self._lock:
            self._counter += 1
            photo_id = f"{self.name}-{self._counter}"
            self.photos[photo_id] = data
        return photo_id

    def download(self, photo_id, requester, resolution=None, crop_box=None):
        return self.photos[photo_id]

    def delete(self, photo_id):
        with self._lock:
            self.deletes.append(photo_id)
            self.photos.pop(photo_id, None)


class FlakyStore:
    """A blob store that refuses every write."""

    name = "flaky"

    def put(self, key, blob):
        raise IOError("disk full")

    def get(self, key):
        raise KeyError(key)

    def exists(self, key):
        return False

    def delete(self, key):
        pass


class TestConcurrentFanoutUpload:
    def test_threaded_ingest_overlaps_provider_waits(self):
        """3 slow providers on threads ~= 1 provider's wall clock."""
        delay = 0.08
        providers = [SlowPSP(f"p{i}", delay_s=delay) for i in range(3)]
        fan = FanoutPSP(providers, executor=Executor("thread", 3))
        start = time.perf_counter()
        photo_id = fan.upload(b"jpeg-bytes", owner="alice")
        elapsed = time.perf_counter() - start
        assert set(fan.provider_ids(photo_id)) == {"p0", "p1", "p2"}
        # Serial would be >= 3 * delay; concurrent should be well under 2x.
        assert elapsed < 2 * delay
        assert all(
            seconds >= delay for seconds in fan.last_ingest_timings.values()
        )

    def test_route_and_bytes_identical_to_serial(self):
        payload = b"the-public-part"
        serial = FanoutPSP([SlowPSP(f"p{i}", 0.0) for i in range(3)])
        threaded = FanoutPSP(
            [SlowPSP(f"p{i}", 0.0) for i in range(3)],
            executor=Executor("thread", 3),
        )
        serial_id = serial.upload(payload, owner="a")
        threaded_id = threaded.upload(payload, owner="a")
        for fan, photo_id in ((serial, serial_id), (threaded, threaded_id)):
            for name in fan.provider_names:
                assert fan.download_from(name, photo_id, "a") == payload

    def test_concurrent_partial_failure_rolls_back(self):
        """min_success semantics survive concurrent ingest: the two
        successful providers are rolled back when the third fails."""
        providers = [
            SlowPSP("ok1", 0.01),
            SlowPSP("dead", 0.01, fail=True),
            SlowPSP("ok2", 0.01),
        ]
        fan = FanoutPSP(providers, executor=Executor("thread", 3))
        with pytest.raises(FanoutUploadError, match="2/3"):
            fan.upload(b"data", owner="alice")
        assert providers[0].deletes and providers[2].deletes
        assert not providers[0].photos and not providers[2].photos
        assert fan.all_photo_ids() == []

    def test_min_success_tolerates_concurrent_failures(self):
        providers = [
            SlowPSP("ok", 0.01),
            SlowPSP("dead", 0.01, fail=True),
        ]
        fan = FanoutPSP(
            providers, min_success=1, executor=Executor("thread", 2)
        )
        photo_id = fan.upload(b"data", owner="alice")
        assert list(fan.provider_ids(photo_id)) == ["ok"]
        assert fan.download(photo_id, "alice") == b"data"

    def test_fleet_wide_delete_denies_instead_of_allowing(
        self, scene_corpus
    ):
        """Regression: when every policy-enforcing provider has lost a
        photo, check_access must raise KeyError, not fall through to
        allow (a cached variant of a deleted photo would otherwise
        keep serving with no access decision)."""
        jpeg = encode_rgb(scene_corpus[0], quality=85)
        providers = [FacebookPSP(), FacebookPSP()]
        fan = FanoutPSP(providers)
        photo_id = fan.upload(jpeg, owner="alice")
        fan.check_access(photo_id, "alice")  # sanity: allowed while held
        for alias, provider_id in fan.provider_ids(photo_id).items():
            fan.provider(alias).delete(provider_id)
        with pytest.raises(KeyError):
            fan.check_access(photo_id, "alice")

    def test_ingest_seconds_accumulate(self):
        fan = FanoutPSP(
            [SlowPSP("a", 0.01), SlowPSP("b", 0.01)],
            executor=Executor("thread", 2),
        )
        fan.upload(b"x", owner="u")
        fan.upload(b"y", owner="u")
        assert set(fan.ingest_seconds) == {"a", "b"}
        assert all(
            total >= 0.02 for total in fan.ingest_seconds.values()
        )


class TestConcurrentReplicaPuts:
    def test_replicas_land_on_ring_prefix(self):
        stores = [CloudStorage(f"s{i}") for i in range(4)]
        replicated = ReplicatedBlobStore(
            stores, replicas=3, executor=Executor("thread", 3)
        )
        replicated.put("key", b"blob")
        expected = replicated.replica_indices("key")
        for index in expected:
            assert stores[index].exists("key")
        assert sum(store.exists("key") for store in stores) == 3
        assert replicated.get("key") == b"blob"
        assert replicated.degraded_puts == 0

    def test_dead_store_degrades_concurrently_like_serially(self):
        stores = [CloudStorage("s0"), FlakyStore(), CloudStorage("s2")]
        for executor in (None, Executor("thread", 3)):
            replicated = ReplicatedBlobStore(
                stores, replicas=3, executor=executor
            )
            before = replicated.degraded_puts
            replicated.put("key", b"blob")
            assert replicated.degraded_puts == before + 1
            assert replicated.get("key") == b"blob"

    def test_all_stores_dead_raises(self):
        replicated = ReplicatedBlobStore(
            [FlakyStore(), FlakyStore()],
            replicas=2,
            executor=Executor("thread", 2),
        )
        with pytest.raises(Exception, match="no store accepted"):
            replicated.put("key", b"blob")

    def test_counters_exact_under_concurrent_puts(self):
        stores = [CloudStorage("s0"), FlakyStore(), CloudStorage("s2")]
        replicated = ReplicatedBlobStore(
            stores, replicas=3, executor=Executor("thread", 3)
        )
        threads = [
            threading.Thread(
                target=replicated.put, args=(f"key{i}", b"blob")
            )
            for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert replicated.degraded_puts == 16  # one flaky store each


class TestSessionWiring:
    def test_config_ingest_executor_reaches_both_composites(self):
        config = P3Config(
            psps=("facebook", "flickr"),
            shards=3,
            replication=2,
            ingest_executor="thread",
            ingest_workers=3,
        )
        session = P3Session.create(user="alice", config=config)
        assert session.psp.executor.kind == "thread"
        assert session.psp.executor.workers == 3
        # One executor instance is shared by both roles.
        assert session.psp.executor is session.storage.executor

    def test_automatic_ingest_pool_is_io_sized(self):
        """ingest_workers=0 sizes the shared thread pool for network
        waits, min(32, cpus + 4), so even a 1-CPU host overlaps a
        3-provider publish."""
        config = P3Config(
            psps=("facebook", "flickr", "photobucket"),
            replication=2,
            ingest_executor="thread",
        )
        session = P3Session.create(user="alice", config=config)
        executor = session.psp.executor
        assert executor is session.storage.executor
        assert executor.kind == "thread"
        assert executor.workers == min(32, (os.cpu_count() or 1) + 4)

    def test_serial_config_leaves_composites_serial(self):
        config = P3Config(psps=("facebook", "flickr"), replication=2)
        session = P3Session.create(user="alice", config=config)
        assert session.psp.executor is None
        assert session.storage.executor is None

    def test_threaded_fanout_publish_reconstructs_identically(
        self, scene_corpus
    ):
        """End-to-end: real providers, threaded ingest, byte parity."""
        jpeg = encode_rgb(scene_corpus[0], quality=85)

        def publish(ingest_executor):
            keys = Keyring("alice")
            keys.add_key("trip", bytes(range(16)))
            session = P3Session.create(
                keyring=keys,
                config=P3Config(
                    quality=85,
                    psps=("facebook", "flickr"),
                    replication=2,
                    shards=2,
                    ingest_executor=ingest_executor,
                ),
            )
            record = session.upload(jpeg, album="trip")
            return {
                name: session.download(
                    record.photo_id, album="trip"
                ).tobytes()
                for name in session.psp.provider_names[:1]
            }

        assert publish("serial") == publish("thread")


class TestBackendHammer:
    """The thread-safety satellite: shared simulators under load."""

    def test_psp_hammer_uploads_and_downloads(self, scene_corpus):
        psp = FacebookPSP()
        jpeg = encode_rgb(scene_corpus[0][:64, :64], quality=80)
        ids: list[str] = []
        ids_lock = threading.Lock()
        errors = []

        def work(worker: int) -> None:
            try:
                for _ in range(2):
                    photo_id = psp.upload(
                        jpeg, owner=f"user{worker}", viewers={"all"}
                    )
                    with ids_lock:
                        ids.append(photo_id)
                    psp.download(photo_id, f"user{worker}", resolution=75)
                    psp.check_access(photo_id, f"user{worker}")
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(worker,))
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(ids) == 8
        assert len(set(ids)) == 8  # no ID collisions under the lock
        assert sorted(psp.all_photo_ids()) == sorted(ids)
        assert psp.bytes_received == 8 * len(jpeg)

    def test_storage_hammer_counters_stay_consistent(self):
        storage = CloudStorage()
        errors = []

        def work(worker: int) -> None:
            try:
                for index in range(50):
                    key = f"k{worker}-{index % 10}"
                    storage.put(key, bytes(10))
                    storage.get(key)
                    if index % 3 == 0:
                        storage.delete(key)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(worker,))
            for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert storage.get_count == 6 * 50
        # bytes_stored must equal exactly what is still held.
        assert storage.bytes_stored == sum(
            len(storage.snoop(key)) for key in storage.keys()
        )


class TestConcurrentFirstUploads:
    def test_first_uploads_to_a_new_album_share_one_key(
        self, monkeypatch, scene_corpus
    ):
        """Two threads' first uploads to a new album through one
        session both stay viewable: neither thread's album key replaces
        the other's."""
        generate_key = keyring_module.generate_key

        def slow_generate_key(size=16):
            time.sleep(0.05)
            return generate_key(size)

        monkeypatch.setattr(keyring_module, "generate_key", slow_generate_key)
        session = P3Session(
            Keyring("alice"),
            FacebookPSP(),
            CloudStorage(),
            P3Config(threshold=15, quality=85),
        )
        jpegs = [encode_rgb(image, quality=85) for image in scene_corpus[:2]]
        barrier = threading.Barrier(2)
        records = [None, None]

        def upload(index):
            barrier.wait(timeout=10)
            records[index] = session.upload(jpegs[index], album="trip")

        threads = [
            threading.Thread(target=upload, args=(index,)) for index in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert all(record is not None for record in records)
        for record in records:
            assert session.download(record.photo_id, album="trip").size
