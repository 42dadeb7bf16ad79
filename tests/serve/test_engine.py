"""Tests for the ServingEngine: three-tier cache, coalescing, access,
and partition isolation."""

import threading
import time

import numpy as np
import pytest

from repro.core.config import P3Config
from repro.crypto.keyring import Keyring
from repro.jpeg.codec import encode_rgb
from repro.api.session import P3Session
from repro.serve.engine import ServeRequest, ServeResult, ServingEngine
from repro.serve.keys import key_digest
from repro.serve.trace import percentile
from repro.system.psp import AccessDeniedError, FacebookPSP
from repro.system.storage import CloudStorage


class CountingPSP:
    """Delegating PSP wrapper that counts calls per method."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.downloads = 0
        self.access_checks = 0
        self._lock = threading.Lock()

    def upload(self, data, owner, viewers=None):
        return self.inner.upload(data, owner=owner, viewers=viewers)

    def download(self, photo_id, requester, resolution=None, crop_box=None):
        with self._lock:
            self.downloads += 1
        return self.inner.download(
            photo_id, requester, resolution=resolution, crop_box=crop_box
        )

    def check_access(self, photo_id, requester):
        with self._lock:
            self.access_checks += 1
        self.inner.check_access(photo_id, requester)

    def delete(self, photo_id):
        self.inner.delete(photo_id)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def world(scene_corpus):
    """A published photo behind a counting PSP, plus alice's keyring."""
    keys = Keyring("alice")
    keys.create_album("trip")
    psp = CountingPSP(FacebookPSP())
    storage = CloudStorage()
    sender = P3Session(keys, psp, storage, P3Config(quality=85))
    jpeg = encode_rgb(scene_corpus[0], quality=85)
    record = sender.upload(jpeg, album="trip", viewers={"bob"})
    return psp, storage, keys, record.photo_id


def request_for(keys, photo_id, **kwargs):
    return ServeRequest(
        photo_id=photo_id,
        album="trip",
        key=keys.key_for("trip"),
        requester=keys.owner,
        **kwargs,
    )


class TestVariantCache:
    def test_warm_serve_skips_fetch_and_reconstruct(self, world):
        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        request = request_for(keys, photo_id, resolution=130)
        cold = engine.serve(request)
        downloads_after_cold = psp.downloads
        warm = engine.serve(request)
        assert psp.downloads == downloads_after_cold  # no second fetch
        assert warm.variant_hit and not cold.variant_hit
        assert warm.pixels.tobytes() == cold.pixels.tobytes()
        assert engine.variant_cache.stats.count("hits") == 1

    def test_cached_serve_is_byte_identical_to_uncached(self, world):
        psp, storage, keys, photo_id = world
        cached = ServingEngine(psp, storage)
        uncached = ServingEngine(psp, storage, P3Config(variant_cache=0))
        request = request_for(keys, photo_id, resolution=130)
        cached.serve(request)  # warm it
        assert (
            cached.serve(request).pixels.tobytes()
            == uncached.serve(request).pixels.tobytes()
        )

    def test_callers_own_their_pixels(self, world):
        """A caller's write cannot poison the cache: every serve hands
        out the cache's read-only master, so the write raises."""
        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        request = request_for(keys, photo_id, resolution=75)
        first = engine.serve(request).pixels
        reference = first.tobytes()
        with pytest.raises(ValueError):
            first[:] = 0
        hit = engine.serve(request)
        assert hit.variant_hit and hit.pixels is first
        assert hit.pixels.tobytes() == reference

    def test_distinct_geometries_are_distinct_variants(self, world):
        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        small = engine.serve(request_for(keys, photo_id, resolution=75))
        large = engine.serve(request_for(keys, photo_id, resolution=130))
        assert small.pixels.shape != large.pixels.shape
        assert len(engine.variant_cache) == 2

    def test_ttl_expiry_reconstructs_again(self, world):
        psp, storage, keys, photo_id = world
        clock = FakeClock()
        engine = ServingEngine(
            psp, storage, P3Config(variant_ttl_s=60.0), clock=clock
        )
        request = request_for(keys, photo_id, resolution=130)
        cold = engine.serve(request)
        clock.now = 59.0
        assert engine.serve(request).variant_hit
        clock.now = 61.0
        downloads_before = psp.downloads
        stale = engine.serve(request)
        assert not stale.variant_hit  # expired -> reconstructed afresh
        assert psp.downloads == downloads_before + 1
        assert engine.variant_cache.stats.count("expirations") == 1
        assert stale.pixels.tobytes() == cold.pixels.tobytes()


class TestSecretCacheTier:
    def test_secret_fetched_once_across_resolutions(self, world):
        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        before = storage.get_count
        for resolution in (75, 130, 720):
            engine.serve(request_for(keys, photo_id, resolution=resolution))
        assert storage.get_count == before + 1
        assert engine.secret_cache.stats.count("hits") == 2

    def test_public_only_never_touches_storage(self, world):
        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        before = storage.get_count
        result = engine.serve(
            ServeRequest(photo_id=photo_id, requester="alice", resolution=130)
        )
        assert result.public_only
        assert storage.get_count == before
        assert len(engine.secret_cache) == 0

    def test_public_and_keyed_variants_never_mix(self, world):
        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        keyed = engine.serve(request_for(keys, photo_id, resolution=130))
        public = engine.serve(
            ServeRequest(photo_id=photo_id, requester="alice", resolution=130)
        )
        assert not public.variant_hit  # distinct cache identity
        assert keyed.pixels.tobytes() != public.pixels.tobytes()


class TestAccessControl:
    def test_access_enforced_on_cache_hits(self, world):
        """A cached variant must not leak past the PSP's viewer policy."""
        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        engine.serve(request_for(keys, photo_id, resolution=130))  # warm
        mallory = ServeRequest(
            photo_id=photo_id, requester="mallory", resolution=130
        )
        with pytest.raises(AccessDeniedError):
            engine.serve(mallory)

    def test_download_enforcing_backend_without_hook_still_enforced(
        self, world
    ):
        """A protocol-conforming PSP that enforces access only inside
        download() (no check_access hook) must keep getting a round
        trip on cache hits — the pre-refactor per-download guarantee."""
        psp, storage, keys, photo_id = world

        class HookFreePSP:
            """Enforces in download(); exposes no check_access."""

            def __init__(self, inner):
                self.inner = inner.inner  # unwrap the counter
                self.name = self.inner.name
                self.downloads = 0
                self.allowed = {"alice"}

            def upload(self, data, owner, viewers=None):
                return self.inner.upload(data, owner=owner, viewers=viewers)

            def download(self, photo_id, requester, resolution=None,
                         crop_box=None):
                self.downloads += 1
                if requester not in self.allowed:
                    raise PermissionError(f"{requester} may not view")
                return self.inner.download(
                    photo_id, requester,
                    resolution=resolution, crop_box=crop_box,
                )

        hook_free = HookFreePSP(psp)
        engine = ServingEngine(hook_free, storage)
        request = request_for(keys, photo_id, resolution=130)
        engine.serve(request)  # alice warms the cache
        warm = engine.serve(request)
        assert warm.variant_hit
        assert hook_free.downloads == 2  # the hit still took a round trip
        mallory = ServeRequest(
            photo_id=photo_id,
            album="trip",
            key=keys.key_for("trip"),
            requester="mallory",
            resolution=130,
        )
        with pytest.raises(PermissionError):
            engine.serve(mallory)  # cold: denied
        engine.serve(request)
        with pytest.raises(PermissionError):
            engine.serve(mallory)  # warm cache: still denied

    def test_unknown_photo_raises_keyerror_even_when_cached(self, world):
        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        request = request_for(keys, photo_id, resolution=130)
        engine.serve(request)
        psp.delete(photo_id)
        with pytest.raises(KeyError):
            engine.serve(request)


class TestCoalescing:
    def test_concurrent_viewers_trigger_one_reconstruction(self, world):
        psp, storage, keys, photo_id = world
        gate = threading.Event()
        inner_download = psp.inner.download

        def gated_download(*args, **kwargs):
            assert gate.wait(timeout=10)
            return inner_download(*args, **kwargs)

        psp.inner.download = gated_download
        try:
            engine = ServingEngine(psp, storage)
            request = request_for(keys, photo_id, resolution=130)
            results = []
            errors = []

            def view():
                try:
                    results.append(engine.serve(request))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=view) for _ in range(4)]
            for thread in threads:
                thread.start()
            # Wait until the three followers are queued behind the leader,
            # then open the gate.
            deadline = time.monotonic() + 10
            while engine._variant_flights.waiters(request.variant_key()) < 3:
                assert time.monotonic() < deadline, "waiters never arrived"
                time.sleep(0.002)
            gate.set()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            psp.inner.download = inner_download

        assert not errors
        assert len(results) == 4
        assert psp.downloads == 1  # one fetch, one reconstruction
        assert engine.stats.count("reconstructions") == 1
        assert engine.stats.count("coalesced") == 3
        # The leader and every waiter hold the one body the miss wrote.
        assert all(r.body is results[0].body for r in results)
        assert results[0].pixels.tobytes() == results[0].body


class TestTimingHooks:
    def test_every_serve_reports_stage_timings(self, world):
        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        request = request_for(keys, photo_id, resolution=130)
        cold = engine.serve(request)
        warm = engine.serve(request)
        assert cold.timing.reconstruct_s > 0
        assert cold.timing.fetch_public_s > 0
        assert cold.timing.total_s >= cold.timing.reconstruct_s
        assert warm.timing.total_s > 0
        assert warm.timing.reconstruct_s == 0.0  # served from cache
        assert [cold.source, warm.source] == [
            "reconstructed",
            "variant-cache",
        ]

    def test_stats_percentiles_and_snapshot(self, world):
        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        request = request_for(keys, photo_id, resolution=75)
        for _ in range(5):
            engine.serve(request)
        snapshot = engine.snapshot()
        assert snapshot["serving"]["requests"] == 5
        assert snapshot["serving"]["reconstructions"] == 1
        assert snapshot["serving"]["p50_ms"] >= 0
        assert snapshot["variant_cache"]["hits"] == 4
        assert snapshot["serving"]["p99_ms"] >= snapshot["serving"]["p50_ms"]

    def test_snapshot_reports_codec_engine(self, world):
        """/stats must say whether the codec kernel loaded — deployments
        verify the native build through this key."""
        import json

        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        codec = engine.snapshot()["codec"]
        assert list(codec) == ["native"]
        assert codec["native"]["available"] is True
        json.dumps(codec)  # the gateway serializes this verbatim


class TestBatchSeam:
    def test_fetch_task_reconstructs_byte_identically(self, world):
        from repro.api.pipeline import run_decrypt_task

        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        request = request_for(keys, photo_id, resolution=130)
        task = engine.fetch_task(request)
        served = engine.serve(request)
        assert (
            run_decrypt_task(task).tobytes() == served.pixels.tobytes()
        )

    def test_fetch_task_hits_shared_envelope_tier(self, world):
        # The historical bug: batch_download's fetch stage went
        # straight to storage, bypassing every cache an interactive
        # serve had just warmed.  Now both paths share the envelope
        # tier: a serve-warmed engine builds the task without any
        # storage round trip.
        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        request = request_for(keys, photo_id, resolution=130)
        engine.serve(request)  # warms the envelope tier too
        before = storage.get_count
        engine.fetch_task(request)
        assert storage.get_count == before  # served from the shared tier

    def test_fetch_task_populates_envelope_tier(self, world):
        # ...and the sharing goes both ways: a cold batch fetch leaves
        # the envelope cached, so a later interactive serve of the
        # same photo skips storage.
        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        request = request_for(keys, photo_id, resolution=130)
        before = storage.get_count
        engine.fetch_task(request)
        assert storage.get_count == before + 1  # true miss hit storage
        engine.serve(request)
        assert storage.get_count == before + 1  # no second round trip

    def test_fetch_task_enforces_access(self, world):
        # The historical hole: fetch_task never consulted the PSP, so
        # batch_download leaked variants serve() would have denied.
        psp, storage, keys, photo_id = world
        engine = ServingEngine(psp, storage)
        engine.fetch_task(request_for(keys, photo_id, resolution=130))
        mallory = ServeRequest(
            photo_id=photo_id,
            album="trip",
            key=keys.key_for("trip"),
            requester="mallory",
            resolution=130,
        )
        with pytest.raises(AccessDeniedError):
            engine.fetch_task(mallory)
        checks_before = psp.access_checks
        # preauthorized skips the hook (the session layer has already
        # run the check for the whole batch); the PSP's own in-band
        # enforcement on the public download still applies.
        bob = ServeRequest(
            photo_id=photo_id,
            album="trip",
            key=keys.key_for("trip"),
            requester="bob",
            resolution=130,
        )
        engine.fetch_task(bob, preauthorized=True)
        assert psp.access_checks == checks_before


class TestRequestValidation:
    def test_keyed_request_needs_album(self):
        with pytest.raises(ValueError, match="album"):
            ServeRequest(photo_id="x", key=b"\x00" * 16)

    @pytest.mark.parametrize("resolution", [0, -5])
    def test_non_positive_resolution_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            ServeRequest(photo_id="x", resolution=resolution)

    def test_positive_resolution_accepted(self):
        assert ServeRequest(photo_id="x", resolution=1).resolution == 1


class TestServingStatsSnapshot:
    """The engine's ``serving`` part of ``/stats``, built from its
    recorder."""

    @staticmethod
    def engine():
        return ServingEngine(FacebookPSP(), CloudStorage())

    def test_empty_window_percentile_is_zero(self):
        snapshot = self.engine().snapshot()["serving"]
        assert snapshot["p50_ms"] == 0.0
        assert snapshot["p99_ms"] == 0.0
        assert snapshot["requests"] == 0

    def test_snapshot_percentiles_use_the_shared_percentile(self):
        engine = self.engine()
        latencies = [ms / 1000.0 for ms in (5, 1, 4, 2, 3, 100)]
        for latency in latencies:
            engine.stats.record(
                "requests", "reconstructions", window="serve", sample=latency
            )
        snapshot = engine.snapshot()["serving"]
        assert snapshot["p50_ms"] == round(percentile(latencies, 50) * 1000, 3)
        assert snapshot["p99_ms"] == 100.0

    def test_snapshot_is_internally_consistent_under_load(self):
        """Counters and percentiles must describe the same instant:
        hammer the engine's recording while snapshotting and check
        every snapshot's counters sum up exactly."""
        engine = self.engine()
        stop = threading.Event()
        bad: list[dict] = []

        def recorder():
            pixels = np.zeros((1, 1, 3), dtype=np.uint8)
            while not stop.is_set():
                result = ServeResult(
                    body=pixels.tobytes(), pixels=pixels, photo_id="x"
                )
                engine._record(result, time.perf_counter())

        def snapshotter():
            while not stop.is_set():
                snap = engine.snapshot()["serving"]
                total = (
                    snap["reconstructions"]
                    + snap["coalesced"]
                    + snap["variant_hits"]
                )
                if total != snap["requests"]:
                    bad.append(snap)

        threads = [threading.Thread(target=recorder) for _ in range(3)]
        threads.append(threading.Thread(target=snapshotter))
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join()
        assert not bad, f"inconsistent snapshots: {bad[:3]}"


class TestPartitionIsolation:
    def test_hot_tenant_cannot_flush_protected_partition(
        self, world, scene_corpus
    ):
        """An engine-level flood: carol serving many distinct variants
        of her album must not evict bob's within-quota working set."""
        psp, storage, keys, photo_id = world
        carol_keys = Keyring("carol")
        carol_keys.create_album("other")
        sender = P3Session(carol_keys, psp, storage, P3Config(quality=85))
        hot_id = sender.upload(
            encode_rgb(scene_corpus[0], quality=85), album="other"
        ).photo_id

        engine = ServingEngine(
            psp,
            storage,
            # 2 protected entries each
            P3Config(variant_cache=4, cache_partition_quota=0.5),
        )
        for resolution in (75, 130):
            engine.serve(request_for(keys, photo_id, resolution=resolution))
        for resolution in range(60, 72):  # 12 distinct hot variants
            engine.serve(
                ServeRequest(
                    photo_id=hot_id,
                    album="other",
                    key=carol_keys.key_for("other"),
                    requester="carol",
                    resolution=resolution,
                )
            )
        # The flood only ever evicted carol's own excess.
        for resolution in (75, 130):
            result = engine.serve(
                request_for(keys, photo_id, resolution=resolution)
            )
            assert result.variant_hit, "protected partition was evicted"
        report = engine.snapshot()["partitions"]["variant_cache"]
        trip = report[key_digest(keys.key_for("trip"))]
        assert trip["evictions"] == 0
        assert trip["entries"] == 2
