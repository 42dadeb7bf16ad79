"""Tests for the `P3Session` facade and the parallel batch pipeline."""

import numpy as np
import pytest

from repro.api.fanout import FanoutPSP, ReplicatedBlobStore
from repro.api.session import (
    BatchReport,
    DownloadRequest,
    P3Session,
    PhotoRecord,
    UploadRequest,
)
from repro.core.config import P3Config
from repro.crypto.keyring import Keyring
from repro.jpeg.codec import encode_rgb
from repro.serve.keys import secret_blob_key
from repro.system.psp import FacebookPSP, FlickrPSP
from repro.system.storage import CloudStorage


class ExplodingStore:
    """A blob store that accepts nothing — for rollback regression tests."""

    name = "exploding"

    def put(self, key, blob):
        raise IOError("simulated storage outage")

    def get(self, key):
        raise KeyError(key)

    def exists(self, key):
        return False

    def delete(self, key):
        pass


@pytest.fixture(scope="module")
def jpegs(scene_corpus):
    return [encode_rgb(image, quality=85) for image in scene_corpus]


@pytest.fixture()
def session():
    return P3Session.create(
        psp="facebook",
        storage="dropbox",
        user="alice",
        config=P3Config(threshold=15, quality=85),
    )


class TestCreate:
    def test_create_resolves_backend_names(self):
        session = P3Session.create(psp="flickr", storage="dropbox")
        assert isinstance(session.psp, FlickrPSP)
        assert isinstance(session.storage, CloudStorage)

    def test_create_accepts_instances(self):
        psp, storage = FacebookPSP(), CloudStorage()
        session = P3Session.create(psp=psp, storage=storage, user="bob")
        assert session.psp is psp
        assert session.storage is storage
        assert session.user == "bob"

    def test_unknown_backend_name(self):
        with pytest.raises(KeyError):
            P3Session.create(psp="instagram")

    def test_default_config(self):
        assert P3Session.create().config == P3Config()


class TestSinglePhotoParity:
    """Single, batch and configured-session reads agree exactly."""

    def _session_world(self):
        keys = Keyring("alice")
        keys.add_key("trip", bytes(range(16)))
        return P3Session(
            keys,
            FacebookPSP(),
            CloudStorage(),
            config=P3Config(threshold=15, quality=85),
        )

    def test_transform_estimate_threads_into_batch(self, jpegs):
        """batch_download must honor the session's transform estimate,
        including across process-pool pickling."""
        from repro.system.reverse import TransformEstimate

        estimate = TransformEstimate(
            kernel="bicubic", sharpen_amount=0.4, gamma=1.0, score_db=40.0
        )
        keys = Keyring("alice")
        keys.add_key("trip", bytes(range(16)))
        session = P3Session(
            keys,
            FacebookPSP(),
            CloudStorage(),
            config=P3Config(threshold=15, quality=85, workers=2),
            transform_estimate=estimate,
        )
        record = session.upload(jpegs[0], album="trip")
        single = session.download(record.photo_id, album="trip", resolution=75)
        for kind in ("serial", "process"):
            report = session.batch_download(
                [record.photo_id], album="trip", resolution=75, executor=kind
            )
            assert report.ok, report.failures
            assert np.array_equal(single, report.results[0])
        # The estimate changed the reconstruction vs the default operator.
        plain = self._session_world()
        plain.upload(jpegs[0], album="trip")
        default_recon = plain.download(
            record.photo_id, album="trip", resolution=75
        )
        assert not np.array_equal(single, default_recon)

    def test_viewer_inherits_estimate_and_secret_cache(self, jpegs):
        from repro.system.reverse import TransformEstimate

        estimate = TransformEstimate(
            kernel="lanczos", sharpen_amount=0.0, gamma=1.0, score_db=35.0
        )
        session = P3Session.create(
            psp="flickr",
            transform_estimate=estimate,
            config=P3Config(secret_cache=7),
        )
        bob = session.viewer("bob")
        assert bob.engine is session.engine
        assert bob.transform_estimate is estimate
        assert bob.engine.secret_cache.maxsize == 7

    def test_batch_download_matches_single_download(self, jpegs):
        """The executor path reconstructs exactly like single downloads."""
        session = self._session_world()
        records = [
            session.upload(jpeg, album="trip") for jpeg in jpegs[:2]
        ]
        singles = [
            session.download(r.photo_id, album="trip", resolution=75)
            for r in records
        ]
        report = session.batch_download(
            [r.photo_id for r in records], album="trip", resolution=75
        )
        assert report.ok
        for single, batched in zip(singles, report.results):
            assert np.array_equal(single, batched)


class TestUploadDownload:
    def test_upload_record_fields(self, session, jpegs):
        record = session.upload(jpegs[0], album="trip", viewers={"bob"})
        assert isinstance(record, PhotoRecord)
        assert record.psp == "facebook"
        assert record.album == "trip"
        assert record.total_bytes == record.public_bytes + record.secret_bytes
        assert session.storage.exists(secret_blob_key("trip", record.photo_id))

    def test_album_key_auto_created(self, session, jpegs):
        assert "trip" not in session.keyring
        session.upload(jpegs[0], album="trip")
        assert "trip" in session.keyring

    def test_upload_pixels(self, session, scene_corpus):
        record = session.upload(scene_corpus[0], album="trip")
        assert record.public_bytes > 0

    def test_upload_request_dataclass(self, session, jpegs):
        request = UploadRequest(
            album="trip", jpeg=jpegs[0], viewers=frozenset({"bob"})
        )
        record = session.upload(request)
        pixels = session.download(
            DownloadRequest(photo_id=record.photo_id, album="trip")
        )
        assert pixels.ndim == 3

    def test_downloaded_pixels_are_the_callers_own(self, session, jpegs):
        record = session.upload(jpegs[0], album="trip")
        first = session.download(record.photo_id, album="trip")
        reference = first.tobytes()
        first[:] = 0  # the caller's copy is writable
        again = session.download(record.photo_id, album="trip")
        assert again.tobytes() == reference

    def test_public_only_request(self, session, jpegs):
        record = session.upload(jpegs[0], album="trip")
        public = session.download(
            DownloadRequest(
                photo_id=record.photo_id, album="trip", public_only=True
            )
        )
        assert public.shape[0] > 0

    def test_public_only_honors_crop_box(self, session, jpegs):
        """Single and batch paths must serve the same cropped view."""
        record = session.upload(jpegs[0], album="trip")
        request = DownloadRequest(
            photo_id=record.photo_id,
            album="trip",
            resolution=75,
            crop_box=(4, 4, 32, 32),
            public_only=True,
        )
        single = session.download(request)
        assert single.shape[:2] == (32, 32)
        batched = session.batch_download([request]).results[0]
        assert np.array_equal(single, batched)

    def test_raw_item_requires_album(self, session, jpegs):
        with pytest.raises(ValueError, match="album"):
            session.upload(jpegs[0])
        with pytest.raises(ValueError, match="album"):
            session.download("someid")

    def test_upload_request_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            UploadRequest(album="trip")
        with pytest.raises(ValueError, match="exactly one"):
            UploadRequest(
                album="trip", jpeg=b"x", pixels=np.zeros((8, 8))
            )
        with pytest.raises(ValueError, match="album"):
            UploadRequest(album="", jpeg=b"x")

    def test_share_and_viewer(self, session, jpegs):
        record = session.upload(jpegs[0], album="trip", viewers={"bob"})
        bob = session.viewer("bob")
        assert bob.psp is session.psp
        with pytest.raises(KeyError):
            bob.download(record.photo_id, album="trip")
        session.share("trip", bob)
        pixels = bob.download(record.photo_id, album="trip")
        assert pixels.ndim == 3


class TestBatchPipeline:
    def test_batch_upload_report(self, session, jpegs):
        report = session.batch_upload(jpegs, album="trip")
        assert isinstance(report, BatchReport)
        assert report.ok
        assert report.succeeded == len(jpegs)
        assert report.executor == "serial"  # config default
        assert report.bytes_public == sum(
            r.public_bytes for r in report.results
        )
        assert report.throughput > 0
        assert "batch_upload" in report.summary()

    def test_batch_roundtrip(self, session, jpegs):
        up = session.batch_upload(jpegs, album="trip")
        down = session.batch_download(
            [r.photo_id for r in up.results], album="trip", resolution=75
        )
        assert down.ok
        assert all(p.ndim == 3 for p in down.results)

    def test_config_selects_default_executor(self, jpegs):
        session = P3Session.create(
            config=P3Config(executor="thread", workers=2)
        )
        report = session.batch_upload(jpegs[:1], album="trip")
        assert report.executor == "thread"
        assert report.workers == 2

    def test_process_executor_output_byte_identical(self, jpegs):
        """Acceptance: the process kind matches serial, byte for byte."""
        worlds = {}
        for kind in ("serial", "process"):
            session = P3Session.create(
                psp="facebook",
                storage="dropbox",
                keyring=self._fixed_keyring(),
                config=P3Config(threshold=15, quality=85, workers=2),
            )
            up = session.batch_upload(jpegs[:2], album="trip", executor=kind)
            assert up.ok, up.failures
            ids = [r.photo_id for r in up.results]
            down = session.batch_download(
                ids, album="trip", resolution=75, executor=kind
            )
            assert down.ok, down.failures
            worlds[kind] = {
                "publics": [
                    session.psp.stored_variant(i, 720) for i in ids
                ],
                "recons": [p.tobytes() for p in down.results],
            }
        assert worlds["serial"]["publics"] == worlds["process"]["publics"]
        assert worlds["serial"]["recons"] == worlds["process"]["recons"]

    @staticmethod
    def _fixed_keyring():
        keys = Keyring("alice")
        keys.add_key("trip", bytes(range(16)))
        return keys

    def test_batch_upload_error_capture(self, session, jpegs):
        corpus = [jpegs[0], b"definitely not a jpeg", jpegs[1]]
        report = session.batch_upload(corpus, album="trip")
        assert not report.ok
        assert report.succeeded == 2
        assert report.results[1] is None
        (failure,) = report.failures
        assert failure.index == 1
        assert failure.stage == "encrypt"
        assert "SOI" in failure.error or "JPEG" in failure.error.upper()

    def test_batch_download_error_capture(self, session, jpegs):
        record = session.upload(jpegs[0], album="trip")
        report = session.batch_download(
            [record.photo_id, "no-such-photo"], album="trip"
        )
        assert report.succeeded == 1
        assert report.results[1] is None
        (failure,) = report.failures
        assert failure.stage == "fetch"

    def test_empty_batch(self, session):
        report = session.batch_upload([], album="trip")
        assert report.total == 0
        assert report.ok

    def test_interleaved_fetch_and_reconstruct_failures_stay_aligned(
        self, session, jpegs
    ):
        """Index alignment when both failure stages hit one batch."""
        records = [
            session.upload(jpeg, album="trip") for jpeg in jpegs[:3]
        ]
        # Corrupt two secret envelopes: their fetch succeeds but the
        # reconstruct stage fails on the envelope HMAC.
        for record in (records[0], records[2]):
            session.storage.tamper(
                secret_blob_key("trip", record.photo_id), offset=40, value=1
            )
        items = [
            records[0].photo_id,  # reconstruct failure
            "missing-photo-a",    # fetch failure
            records[1].photo_id,  # success
            records[2].photo_id,  # reconstruct failure
            "missing-photo-b",    # fetch failure
        ]
        report = session.batch_download(items, album="trip")
        assert report.total == 5
        assert report.succeeded == 1
        assert report.results[2] is not None
        assert [r is None for r in report.results] == [
            True, True, False, True, True
        ]
        by_index = {f.index: f.stage for f in report.failures}
        assert by_index == {
            0: "reconstruct",
            1: "fetch",
            3: "reconstruct",
            4: "fetch",
        }
        # Failures are reported in input order despite the two stages
        # discovering them at different times.
        assert [f.index for f in report.failures] == [0, 1, 3, 4]
        # Byte accounting only counts items that produced pixels.
        assert report.bytes_public > 0


class TestStrictRequestKwargs:
    """Typed requests may not be silently overridden by kwargs."""

    def test_upload_request_with_album_kwarg_raises(self, session, jpegs):
        request = UploadRequest(album="trip", jpeg=jpegs[0])
        with pytest.raises(ValueError, match="ambiguous"):
            session.upload(request, album="other")
        with pytest.raises(ValueError, match="ambiguous"):
            session.upload(request, viewers={"bob"})
        with pytest.raises(ValueError, match="ambiguous"):
            session.batch_upload([request], album="other")

    def test_download_request_with_kwargs_raises(self, session, jpegs):
        record = session.upload(jpegs[0], album="trip")
        request = DownloadRequest(photo_id=record.photo_id, album="trip")
        with pytest.raises(ValueError, match="ambiguous"):
            session.download(request, resolution=75)
        with pytest.raises(ValueError, match="ambiguous"):
            session.download(request, album="other")
        with pytest.raises(ValueError, match="ambiguous"):
            session.batch_download([request], resolution=75)

    def test_requests_without_kwargs_still_work(self, session, jpegs):
        record = session.upload(
            UploadRequest(album="trip", jpeg=jpegs[0])
        )
        pixels = session.download(
            DownloadRequest(photo_id=record.photo_id, album="trip")
        )
        assert pixels.ndim == 3


class TestPublishRollback:
    """A failed secret-part put must not strand the public part."""

    def _session(self, psp, storage):
        keys = Keyring("alice")
        keys.add_key("trip", bytes(range(16)))
        return P3Session(
            keys, psp, storage, config=P3Config(threshold=15, quality=85)
        )

    def test_single_upload_rolls_back_psp_orphan(self, jpegs):
        psp = FacebookPSP()
        session = self._session(psp, ExplodingStore())
        with pytest.raises(IOError, match="storage outage"):
            session.upload(jpegs[0], album="trip")
        assert psp.all_photo_ids() == []

    def test_batch_upload_reports_publish_stage_and_rolls_back(self, jpegs):
        psp = FacebookPSP()
        session = self._session(psp, ExplodingStore())
        report = session.batch_upload(jpegs[:2], album="trip")
        assert not report.ok
        assert report.succeeded == 0
        assert [f.stage for f in report.failures] == ["publish", "publish"]
        assert all("storage outage" in f.error for f in report.failures)
        assert psp.all_photo_ids() == []

    def test_fanout_publish_rolls_back_every_provider(self, jpegs):
        providers = [FacebookPSP(), FlickrPSP()]
        psp = FanoutPSP(providers)
        session = self._session(psp, ExplodingStore())
        with pytest.raises(IOError):
            session.upload(jpegs[0], album="trip")
        assert psp.all_photo_ids() == []
        assert all(p.all_photo_ids() == [] for p in providers)


class TestMultiBackendSession:
    """The fan-out + replication acceptance path."""

    PROVIDERS = ("facebook", "flickr")

    @staticmethod
    def _keyring():
        keys = Keyring("alice")
        keys.add_key("trip", bytes(range(16)))
        return keys

    def test_create_builds_fleets_from_config(self):
        config = P3Config(psps=self.PROVIDERS, shards=3, replication=2)
        session = P3Session.create(user="alice", config=config)
        assert isinstance(session.psp, FanoutPSP)
        assert session.psp.provider_names == list(self.PROVIDERS)
        assert isinstance(session.storage, ReplicatedBlobStore)
        assert len(session.storage.stores) == 3
        assert session.storage.replicas == 2

    def test_create_accepts_backend_lists(self):
        session = P3Session.create(
            psp=["flickr", FacebookPSP()], storage=["dropbox", "memory"]
        )
        assert isinstance(session.psp, FanoutPSP)
        assert sorted(session.psp.provider_names) == ["facebook", "flickr"]
        assert isinstance(session.storage, ReplicatedBlobStore)
        assert session.storage.replicas == 1  # default: pure sharding

    def test_replication_alone_sizes_the_fleet(self):
        session = P3Session.create(config=P3Config(replication=2))
        assert isinstance(session.storage, ReplicatedBlobStore)
        assert len(session.storage.stores) == 2

    def test_config_rejects_bare_string_psps(self):
        with pytest.raises(ValueError, match="sequence of provider names"):
            P3Config(psps="facebook")

    def test_explicit_backend_plus_fleet_config_is_ambiguous(self):
        with pytest.raises(ValueError, match="psp= and config.psps"):
            P3Session.create(
                psp="flickr", config=P3Config(psps=("facebook",))
            )
        with pytest.raises(ValueError, match="after the fact"):
            P3Session.create(
                storage=CloudStorage(), config=P3Config(replication=2)
            )
        with pytest.raises(ValueError, match="shard count"):
            P3Session.create(
                storage=["dropbox", "memory"], config=P3Config(shards=3)
            )

    def test_provider_pin_requires_fanout(self, session, jpegs):
        record = session.upload(jpegs[0], album="trip")
        request = DownloadRequest(
            photo_id=record.photo_id, album="trip", provider="flickr"
        )
        with pytest.raises(ValueError, match="single provider"):
            session.download(request)

    def test_each_provider_reconstructs_like_single_provider_path(
        self, jpegs
    ):
        """Acceptance: fan-out + replication vs the single-provider
        paths, byte for byte, including after one shard is wiped."""
        config = P3Config(
            threshold=15,
            quality=85,
            psps=self.PROVIDERS,
            shards=3,
            replication=2,
        )
        fan = P3Session.create(
            user="alice", keyring=self._keyring(), config=config
        )
        record = fan.upload(jpegs[0], album="trip")

        singles = {}
        for name in self.PROVIDERS:
            single = P3Session.create(
                psp=name,
                keyring=self._keyring(),
                config=P3Config(threshold=15, quality=85),
            )
            single_record = single.upload(jpegs[0], album="trip")
            singles[name] = single.download(
                single_record.photo_id, album="trip"
            ).tobytes()

        def reconstruction(provider):
            return fan.download(
                DownloadRequest(
                    photo_id=record.photo_id, album="trip", provider=provider
                )
            ).tobytes()

        for name in self.PROVIDERS:
            assert reconstruction(name) == singles[name]

        # Wipe the shard holding the primary replica of the envelope.
        storage = fan.storage
        key = secret_blob_key("trip", record.photo_id)
        victim = storage.replica_indices(key)[0]
        for stored in list(storage.stores[victim].keys()):
            storage.stores[victim].delete(stored)
        assert not storage.stores[victim].exists(key)

        # The serving engine would happily keep answering from its
        # caches without noticing the wipe; drop them (as TTL expiry
        # or a fresh serving tier would) so the re-read actually hits
        # storage and triggers read-repair.
        fan.engine.variant_cache.clear()
        fan.engine.secret_cache.clear()
        fan.engine.envelope_cache.clear()

        repairs_before = storage.repairs
        for name in self.PROVIDERS:
            assert reconstruction(name) == singles[name]
        assert storage.repairs > repairs_before
        assert storage.stores[victim].exists(key)  # read-repair healed it

    def test_fanout_batch_roundtrip(self, jpegs):
        config = P3Config(psps=self.PROVIDERS, shards=2, replication=2)
        session = P3Session.create(user="alice", config=config)
        up = session.batch_upload(jpegs[:2], album="trip")
        assert up.ok, up.failures
        down = session.batch_download(
            [
                DownloadRequest(
                    photo_id=record.photo_id, album="trip", provider=provider
                )
                for record in up.results
                for provider in session.psp.provider_names
            ]
        )
        assert down.ok, down.failures
        assert all(p.ndim == 3 for p in down.results)


class TestBatchCacheSharing:
    """batch_download and interactive serves share the envelope tier:
    warm, cold and cache-bypassed batches must all be byte-identical,
    whatever executor reconstructs them (satellite of the batch-path
    cache-bypass fix)."""

    def _world(self, jpegs):
        session = P3Session.create(
            psp="facebook",
            storage="dropbox",
            user="alice",
            config=P3Config(threshold=15, quality=85),
        )
        records = [session.upload(jpeg, album="trip") for jpeg in jpegs[:2]]
        return session, [record.photo_id for record in records]

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_warm_cold_and_bypassed_batches_are_identical(
        self, jpegs, executor
    ):
        session, ids = self._world(jpegs)
        cold = session.batch_download(
            ids, album="trip", resolution=75, executor=executor
        )
        assert cold.ok, cold.failures
        misses_after_cold = session.engine.envelope_cache.stats.count("misses")
        warm = session.batch_download(
            ids, album="trip", resolution=75, executor=executor
        )
        assert warm.ok, warm.failures
        # The second batch ran entirely off the shared envelope tier.
        assert session.engine.envelope_cache.stats.count("hits") >= len(ids)
        assert session.engine.envelope_cache.stats.count("misses") == misses_after_cold

        # A session with every cache disabled: the reference bytes.
        bare = P3Session(
            session.keyring,
            session.psp,
            session.storage,
            config=P3Config(
                threshold=15,
                quality=85,
                variant_cache=0,
                secret_cache=0,
                envelope_cache=0,
            ),
        )
        bypassed = bare.batch_download(
            ids, album="trip", resolution=75, executor=executor
        )
        assert bypassed.ok, bypassed.failures
        for a, b, c in zip(cold.results, warm.results, bypassed.results):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)

    def test_interactive_serve_warms_the_batch_path(self, jpegs):
        session, ids = self._world(jpegs)
        for photo_id in ids:
            session.download(photo_id, album="trip", resolution=75)
        gets_before = session.storage.get_count
        report = session.batch_download(ids, album="trip", resolution=75)
        assert report.ok
        # Every envelope came from the tier the serves populated.
        assert session.storage.get_count == gets_before
