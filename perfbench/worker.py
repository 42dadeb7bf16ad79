"""One benchmark process: set up a P3 deployment, drive a workload, verify.

``run.py`` starts this file in a fresh interpreter with ``PYTHONPATH``
pointing at the checkout's ``src`` and BLAS/OpenMP pinned to one thread.
Two modes, each printing one JSON object as its last stdout line:

* ``--workload W --setup-only``: one set-up sample (import, construct,
  warm-up), then exit;
* ``--workload W --seed N --seconds S --trace 0|1``: a set-up sample,
  then the workload's timed phase and its verification.  The timed
  phase runs in blocks (one pass over the photos, or ``HOT_BLOCK``
  hot requests); with ``--trace 1`` every second block runs under
  :class:`tracer.LayerTracer`, so the untraced and traced halves see
  the same drift in machine speed.

Workloads (one client, one request outstanding, closed loop):

* ``cold_view``: GET of a 512px photo with all three serving-cache tiers
  cleared before each request (untimed), through ``P3Gateway.handle``;
* ``upload``: POST of a 512px JPEG through ``P3Gateway.handle``;
* ``hot_view``: zipfian re-opens of a small popular set by several
  tenants through ``AsyncGateway.handle``; the cache is filled through
  the wrapped sync gateway first, so the async offload pool never starts.

Photos are rendered from fixed per-workload scene seeds, so every run
serves the same photos and the deterministic metrics repeat exactly;
``--seed`` draws the request order.  Each run issues a request count
fixed by ``--seconds`` and a per-workload nominal request cost.

Latencies are reported scaled to a reference machine speed: the
:class:`speed.SpeedProbe` runs after every request on cold_view and
upload, and after every ``HOT_CHUNK`` requests on hot_view, outside the
timed region.  Each latency is scaled by the median probe time within
``SMOOTH_S`` of the probe that follows it.  The unscaled figures go to
stderr.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from speed import REFERENCE_S, SpeedProbe, steal_ticks

SIZE = 512
QUALITY = 85
ALBUM = "trip"
OWNER = "owner"
TENANTS = ("tenant0", "tenant1", "tenant2", "tenant3")
BASE_URL = "http://p3.example"
USER_HEADER = "x-p3-user"
WARMUP_SCENE = 1000
#: workload -> (first scene seed, photo count)
PHOTOS = {"cold_view": (11000, 3), "upload": (12000, 3), "hot_view": (13000, 3)}
#: Nominal seconds per request, which turns --seconds into a fixed count.
NOMINAL_S = {"cold_view": 0.75, "upload": 0.7, "hot_view": 0.00023}
HOT_PERIOD = 4096  # zipf draws, cycled: no per-request objects
HOT_WARMUP = 200
HOT_SAMPLE_EVERY = 256  # one hot response in this many is byte-checked
HOT_BLOCK = 2048  # hot requests per block; trace runs alternate blocks
HOT_CHUNK = 256  # hot requests between two speed probes
SMOOTH_S = 1.0  # a latency is scaled by the median probe within this of it
SETUP_PROBES = 3  # speed probes between two set-up phases; their median counts
#: Per-photo samples of the reference views at the commit that added
#: the benchmark; ``--record-views`` rewrites a workload's entries.
VIEWS_FILE = Path(__file__).with_name("expected_views.json")
VIEW_SAMPLES = 1024
MAX_VIEW_MSE = 2.0  # over the samples: PSNR >= 45.1 dB
ZIPF_S = 1.1
WORKLOADS = tuple(PHOTOS)

#: Span keys the traced run must see calls on, per workload.
EXPECTED_LAYERS = {
    "cold_view": (
        "system.gateway", "serve.engine", "system.psp.download",
        "system.storage", "crypto.envelope", "core.serialization",
        "core.linear", "transforms.resize.p3", "jpeg.markers",
        "jpeg.decoder.entropy", "jpeg.decoder.planes", "jpeg.dct.idct",
        "jpeg.quantization", "jpeg.color",
    ),
    "upload": (
        "system.gateway", "core.encryptor", "core.splitting",
        "core.serialization", "crypto.envelope", "system.psp.upload",
        "system.storage", "transforms.resize.psp", "jpeg.markers",
        "jpeg.decoder.entropy", "jpeg.decoder.planes",
        "jpeg.encoder.entropy", "jpeg.dct.idct", "jpeg.dct.fdct",
        "jpeg.quantization", "jpeg.color",
    ),
    "hot_view": ("serve.async_gateway", "system.gateway", "serve.engine"),
}
#: Span-key prefixes that must see no calls on hot_view (cache hits only).
HOT_IDLE_PREFIXES = ("jpeg.", "transforms.", "core.", "crypto.", "system.psp", "system.storage")
FRONT_END_KEYS = ("system.gateway", "serve.async_gateway")


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# -- set-up -------------------------------------------------------------------


@dataclass
class Deployment:
    gateway: Any
    front: Any  # AsyncGateway on hot_view, else None
    probe: SpeedProbe
    warm_id: str | None = None
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def key(self) -> bytes:
        return self.gateway.keyring_for(OWNER).key_for(ALBUM)

    def view(self, photo_id: str, user: str = TENANTS[0]):
        from repro.system.http import HttpRequest

        url = f"{BASE_URL}/photos/{photo_id}?album={ALBUM}"
        return HttpRequest("GET", url, {USER_HEADER: user})

    def post(self, jpeg: bytes):
        from repro.system.http import HttpRequest

        url = f"{BASE_URL}/photos/upload?album={ALBUM}&viewers={','.join(TENANTS)}"
        return HttpRequest("POST", url, {USER_HEADER: OWNER}, jpeg)

    def clear_caches(self) -> None:
        engine = self.gateway.engine
        engine.variant_cache.clear()
        engine.secret_cache.clear()
        engine.envelope_cache.clear()

    def close(self) -> None:
        (self.front or self.gateway).close()  # the async front closes its gateway

    def upload(self, jpeg: bytes):
        response = self.gateway.handle(self.post(jpeg))
        if response.status != 201:
            raise RuntimeError(f"ingest failed: {response.status} {response.body[:200]!r}")
        if ALBUM not in self.gateway.keyring_for(TENANTS[0]):
            self.gateway.share_album(OWNER, ALBUM, *TENANTS)
        return response


def render(scene: int) -> bytes:
    from repro.datasets.scenes import render_scene
    from repro.jpeg.codec import encode_rgb

    return encode_rgb(render_scene(scene, SIZE, SIZE), quality=QUALITY)


def set_up(workload: str) -> Deployment:
    """Import, construct and warm up; the three timed set-up phases.

    The speed probe runs between the phases, untimed: each phase is
    scaled by the probes around it (import, which must come first, by
    the ones after it) into ``phases["scaled"]``.
    """
    clock = time.perf_counter
    start = clock()
    import repro  # noqa: F401
    from repro.jpeg.engines import engine_info
    from repro.serve.async_gateway import AsyncGateway
    from repro.system.gateway import P3Gateway
    from repro.system.psp import FacebookPSP
    from repro.system.storage import CloudStorage

    imported = clock()
    probe = SpeedProbe()
    after_import = statistics.median(probe() for _ in range(SETUP_PROBES))
    construct_start = clock()
    gateway = P3Gateway(FacebookPSP(), CloudStorage())
    for user in (OWNER, *TENANTS):
        gateway.add_user(user)
    native = engine_info()["native"]
    if not native["available"]:
        raise SystemExit(f"native codec kernel did not load: {native['build_error']}")
    front = AsyncGateway(gateway) if workload == "hot_view" else None
    constructed = clock()
    after_construct = statistics.median(probe() for _ in range(SETUP_PROBES))
    deployment = Deployment(gateway, front, probe)

    warm_jpeg = render(WARMUP_SCENE)  # untimed: input generation
    if workload != "upload":  # untimed: seed-photo ingest
        deployment.warm_id = deployment.upload(warm_jpeg).body.decode()
    before_warmup = statistics.median(probe() for _ in range(SETUP_PROBES))
    warm_start = clock()
    if workload == "cold_view":
        deployment.clear_caches()
        expect_status(gateway.handle(deployment.view(deployment.warm_id)), 200)
    elif workload == "upload":
        expect_status(gateway.handle(deployment.post(warm_jpeg)), 201)
    else:
        request = deployment.view(deployment.warm_id)
        expect_status(gateway.handle(request), 200)

        async def hits() -> None:
            for _ in range(HOT_WARMUP):
                expect_status(await front.handle(request), 200)

        asyncio.run(hits())
    warmed = clock()
    after_warmup = statistics.median(probe() for _ in range(SETUP_PROBES))
    phases = {
        "import_s": imported - start,
        "construct_s": constructed - construct_start,
        "warmup_s": warmed - warm_start,
    }
    probes = {
        "import_s": after_import,
        "construct_s": (after_import + after_construct) / 2.0,
        "warmup_s": (before_warmup + after_warmup) / 2.0,
    }
    phases["scaled"] = {k: phases[k] * REFERENCE_S / probes[k] for k in probes}
    deployment.phases = phases
    return deployment


def expect_status(response, status: int) -> None:
    if response.status != status:
        raise RuntimeError(f"warm-up got {response.status}: {response.body[:200]!r}")


# -- workloads ------------------------------------------------------------------


@dataclass
class Phase:
    """What one timed phase observed, held per photo, never per request."""

    latencies: array = field(default_factory=lambda: array("d"))
    slots: array = field(default_factory=lambda: array("l"))  # probe after each latency
    failed: int = 0
    served: Counter = field(default_factory=Counter)  # requests by photo index
    digests: dict[int, Counter] = field(default_factory=dict)
    uploads: list[tuple[int, str, int, int]] = field(default_factory=list)

    def digest(self, index: int, body: bytes) -> None:
        self.digests.setdefault(index, Counter())[sha(body)] += 1

    def probed(self, probe: SpeedProbe) -> None:
        """Run the probe and tie the latencies since the last probe to it."""
        probe()
        slot = len(probe.samples) - 1
        self.slots.extend(slot for _ in range(len(self.latencies) - len(self.slots)))

    def scaled(self, speeds: dict[int, float]) -> array:
        """The latencies at the reference speed, given each probe slot's
        smoothed probe time."""
        return array(
            "d",
            (t * REFERENCE_S / speeds[slot] for t, slot in zip(self.latencies, self.slots)),
        )


def smoothed_speeds(probe: SpeedProbe, first: int) -> dict[int, float]:
    """For each probe from index ``first`` on, the median probe time
    within ``SMOOTH_S`` either side of it."""
    times, seconds = probe.times, probe.samples
    speeds = {}
    for k in range(first, len(seconds)):
        lo = bisect.bisect_left(times, times[k] - SMOOTH_S, first)
        hi = bisect.bisect_right(times, times[k] + SMOOTH_S)
        speeds[k] = statistics.median(seconds[lo:hi])
    return speeds


def pass_order(rng: random.Random, photos: int, passes: int) -> list[list[int]]:
    """One seeded permutation of the photos per pass."""
    order = []
    for _ in range(passes):
        chunk = list(range(photos))
        rng.shuffle(chunk)
        order.append(chunk)
    return order


def run_cold(deployment: Deployment, requests: list, block: list[int], phase: Phase) -> None:
    handle = deployment.gateway.handle
    clock = time.perf_counter
    for index in block:
        deployment.clear_caches()
        start = clock()
        response = handle(requests[index])
        phase.latencies.append(clock() - start)
        phase.served[index] += 1
        phase.probed(deployment.probe)
        if response.status != 200 or response.headers.get("x-cache") != "reconstructed":
            phase.failed += 1
        else:
            phase.digest(index, response.body)


def run_upload(deployment: Deployment, requests: list, block: list[int], phase: Phase) -> None:
    handle = deployment.gateway.handle
    clock = time.perf_counter
    for index in block:
        start = clock()
        response = handle(requests[index])
        phase.latencies.append(clock() - start)
        phase.served[index] += 1
        phase.probed(deployment.probe)
        if response.status != 201:
            phase.failed += 1
            continue
        headers = response.headers
        phase.uploads.append(
            (
                index,
                response.body.decode(),
                int(headers["x-public-bytes"]),
                int(headers["x-secret-bytes"]),
            )
        )


def run_hot(
    deployment: Deployment,
    requests: list,
    period: list[int],
    block: range,
    phase: Phase,
    sampler: random.Random,
) -> None:
    """Requests ``block`` of the zipfian sequence; a seeded sample of the
    responses is hashed for the byte check (untimed)."""
    handle = deployment.front.handle
    clock = time.perf_counter
    photos = len(requests) // len(TENANTS)

    async def drive() -> None:
        for i in block:
            slot = period[i % HOT_PERIOD]
            start = clock()
            response = await handle(requests[slot])
            phase.latencies.append(clock() - start)
            phase.served[slot % photos] += 1
            if response.status != 200 or response.headers.get("x-cache") != "variant-cache":
                phase.failed += 1
            elif not sampler.randrange(HOT_SAMPLE_EVERY):
                phase.digest(slot % photos, response.body)
            if (i + 1) % HOT_CHUNK == 0 or i + 1 == block.stop:
                phase.probed(deployment.probe)

    asyncio.run(drive())


# -- verification -----------------------------------------------------------------


def reference_view(deployment: Deployment, photo_id: str):
    """The cache-free reconstruction: raw PSP and storage bytes, no engine."""
    from repro.api.pipeline import DecryptTask, run_decrypt_task
    from repro.serve.keys import secret_blob_key

    gateway = deployment.gateway
    return run_decrypt_task(
        DecryptTask(
            key=deployment.key,
            public_jpeg=gateway.psp.download(photo_id, requester=OWNER),
            secret_envelope=gateway.storage.get(secret_blob_key(ALBUM, photo_id)),
        )
    )


def eq2_psnr(jpeg: bytes, p3_view) -> float:
    """PSNR of a P3 view against the provider's view of a plain upload."""
    from repro.jpeg.codec import decode
    from repro.system.psp import FacebookPSP
    from repro.vision.kernels import to_luma
    from repro.vision.metrics import psnr

    provider = FacebookPSP()
    photo_id = provider.upload(jpeg, owner="plain")
    plain = decode(provider.download(photo_id, requester="plain"))
    return psnr(to_luma(plain), to_luma(p3_view))


def view_samples(scene: int, view) -> bytes:
    """A seeded sample of a view's pixel values, fixed per scene."""
    import numpy as np

    flat = np.ascontiguousarray(view, dtype=np.uint8).reshape(-1)
    picks = np.random.default_rng(scene).choice(flat.size, VIEW_SAMPLES, replace=False)
    return flat[picks].tobytes()


def off_record(views: dict[int, tuple[list[int], bytes]]) -> list[int]:
    """Scenes whose reference view strays from ``VIEWS_FILE``.

    The record was taken at the commit that added the benchmark, so a
    codec change that alters what the reference path itself computes
    (an IDCT, decoder or colour error) fails here even though served
    and reference bytes still agree.  A mean squared error up to
    ``MAX_VIEW_MSE`` over the samples admits rounding changes.
    """
    import numpy as np

    record = json.loads(VIEWS_FILE.read_text())
    bad = []
    for scene, (shape, samples) in sorted(views.items()):
        entry = record.get(str(scene))
        if entry is None or entry["shape"] != shape:
            bad.append(scene)
            continue
        expected = np.frombuffer(bytes.fromhex(entry["samples"]), np.uint8)
        error = expected.astype(np.float64) - np.frombuffer(samples, np.uint8)
        if float(np.mean(error * error)) > MAX_VIEW_MSE:
            bad.append(scene)
    return bad


def record_views(views: dict[int, tuple[list[int], bytes]]) -> None:
    record = json.loads(VIEWS_FILE.read_text()) if VIEWS_FILE.exists() else {}
    for scene, (shape, samples) in views.items():
        record[str(scene)] = {"shape": shape, "samples": samples.hex()}
    VIEWS_FILE.write_text(json.dumps(dict(sorted(record.items())), indent=1) + "\n")


def count_mismatches(digests: dict[int, Counter], expected: dict[int, bytes]) -> int:
    return sum(
        n
        for index, seen in digests.items()
        for digest, n in seen.items()
        if digest != expected[index]
    )


def verify_views(deployment: Deployment, jpegs: list[bytes], ids: list[str], phases: list[Phase]):
    """Check served views against cache-free references; returns
    (failures, per-photo reference digests, mean Eq. 2 PSNR, reference
    view samples by photo index)."""
    expected: dict[int, bytes] = {}
    psnrs = []
    views = {}
    for index, photo_id in enumerate(ids):
        reference = reference_view(deployment, photo_id)
        expected[index] = sha(reference.tobytes())
        psnrs.append(eq2_psnr(jpegs[index], reference))
        views[index] = reference
    failures = sum(count_mismatches(p.digests, expected) for p in phases)
    return failures, expected, statistics.fmean(psnrs), views


def verify_uploads(deployment: Deployment, jpegs: list[bytes], phases: list[Phase]):
    """Eq. 1 identity and provider bytes for every upload; returns
    (failures, per-input fingerprints, mean Eq. 2 PSNR, reference view
    of each input's first upload)."""
    import numpy as np

    from repro.core.decryptor import P3Decryptor
    from repro.core.encryptor import P3Encryptor
    from repro.core.reconstruction import recombine
    from repro.jpeg.codec import decode_coefficients
    from repro.serve.keys import secret_blob_key

    gateway = deployment.gateway
    key = deployment.key
    encryptor = P3Encryptor(key, gateway.config)
    decryptor = P3Decryptor(key)
    truth, public = {}, {}
    for index, jpeg in enumerate(jpegs):
        truth[index] = decode_coefficients(jpeg)
        public_jpeg = encryptor.public_jpeg_bytes(encryptor.split_jpeg(jpeg))
        public[index] = decode_coefficients(public_jpeg)

    def exact(a, b) -> bool:
        return (a.width, a.height) == (b.width, b.height) and all(
            np.array_equal(x.coefficients, y.coefficients)
            and np.array_equal(x.quant_table, y.quant_table)
            for x, y in zip(a.components, b.components, strict=True)
        )

    failures = 0
    first_upload: dict[int, str] = {}
    fingerprints: dict[int, Counter] = {}
    for phase in phases:
        for index, photo_id, public_bytes, secret_bytes in phase.uploads:
            first_upload.setdefault(index, photo_id)
            envelope = gateway.storage.get(secret_blob_key(ALBUM, photo_id))
            secret = decryptor.open_secret(envelope)
            combined = recombine(public[index], secret.image, secret.threshold)
            if not exact(combined, truth[index]):
                failures += 1
            stored = sha(gateway.psp.download(photo_id, requester=OWNER))
            fingerprints.setdefault(index, Counter())[stored, public_bytes, secret_bytes] += 1
    # Every upload of one input must store the same provider bytes and
    # sizes: the most common fingerprint is the reference, others fail.
    failures += sum(sum(seen.values()) - max(seen.values()) for seen in fingerprints.values())
    views = {index: reference_view(deployment, photo_id) for index, photo_id in first_upload.items()}
    psnrs = [eq2_psnr(jpegs[index], view) for index, view in sorted(views.items())]
    return failures, fingerprints, statistics.fmean(psnrs), views


# -- metrics ------------------------------------------------------------------------


def cache_counts(deployment: Deployment) -> dict[str, tuple[int, int]]:
    snapshot = deployment.gateway.engine.snapshot()
    return {
        tier: (snapshot[f"{tier}_cache"]["hits"], snapshot[f"{tier}_cache"]["misses"])
        for tier in ("variant", "secret", "envelope")
    }


def layer_metrics(
    tracer, requests: int, speed: float, before: dict, after: dict
) -> dict[str, float]:
    """Per-request layer figures from one traced phase; times are
    multiplied by ``speed``, the phase's scaled over unscaled time."""

    def ms(table: dict, *keys: str) -> float:
        return sum(table.get(k, 0.0) for k in keys) * 1000.0 * speed / requests

    def per(table: dict, *keys: str) -> float:
        return sum(table.get(k, 0) for k in keys) / requests

    self_s, incl_s, calls, amount = tracer.self_s, tracer.incl_s, tracer.calls, tracer.amount
    resize = ("transforms.resize.psp", "transforms.resize.p3")
    psp = ("system.psp.upload", "system.psp.download")
    metrics = {
        "jpeg.dct.idct_ms": ms(self_s, "jpeg.dct.idct"),
        "jpeg.dct.idct_blocks": per(amount, "jpeg.dct.idct"),
        "jpeg.dct.fdct_ms": ms(self_s, "jpeg.dct.fdct"),
        "jpeg.dct.fdct_blocks": per(amount, "jpeg.dct.fdct"),
        "transforms.resize.psp_ms": ms(self_s, "transforms.resize.psp"),
        "transforms.resize.p3_ms": ms(self_s, "transforms.resize.p3"),
        "transforms.resize.calls": per(calls, *resize),
        "jpeg.markers.ms": ms(self_s, "jpeg.markers"),
        "jpeg.markers.calls": per(calls, "jpeg.markers"),
        "jpeg.decoder.entropy_ms": ms(self_s, "jpeg.decoder.entropy"),
        "jpeg.decoder.planes_ms": ms(self_s, "jpeg.decoder.planes"),
        "jpeg.encoder.entropy_ms": ms(self_s, "jpeg.encoder.entropy"),
        "jpeg.quantization.ms": ms(self_s, "jpeg.quantization"),
        "jpeg.color.ms": ms(self_s, "jpeg.color"),
        "core.linear.ms": ms(self_s, "core.linear"),
        "core.reconstruction.calls": per(calls, "core.reconstruction"),
        "core.encryptor.incl_ms": ms(incl_s, "core.encryptor"),
        "core.splitting.ms": ms(self_s, "core.splitting"),
        "core.serialization.ms": ms(self_s, "core.serialization"),
        "crypto.envelope.ms": ms(self_s, "crypto.envelope"),
        "crypto.envelope.bytes": per(amount, "crypto.envelope"),
        "system.psp.upload_incl_ms": ms(incl_s, "system.psp.upload"),
        "system.psp.download_incl_ms": ms(incl_s, "system.psp.download"),
        "system.psp.self_ms": ms(self_s, *psp),
        "system.storage.ms": ms(self_s, "system.storage"),
        "system.storage.calls": per(calls, "system.storage"),
        "serve.engine.ms": ms(self_s, "serve.engine"),
        "system.gateway.ms": ms(self_s, "system.gateway"),
        "serve.async_gateway.ms": ms(self_s, "serve.async_gateway"),
    }
    for tier in ("variant", "secret", "envelope"):
        hits = after[tier][0] - before[tier][0]
        lookups = hits + after[tier][1] - before[tier][1]
        metrics[f"serve.cache.{tier}_hit_ratio"] = hits / lookups if lookups else 0.0
    return metrics


def trace_problems(
    workload: str, tracer, untraced: Phase, traced: Phase, fingerprints
) -> list[str]:
    """The tracer's self-check: expected layers seen, traced bytes unchanged."""
    problems = [
        f"layer {key} recorded no calls"
        for key in EXPECTED_LAYERS[workload]
        if not tracer.calls.get(key)
    ]
    if workload == "hot_view":
        problems += [
            f"layer {key} recorded {n} calls on cache hits"
            for key, n in sorted(tracer.calls.items())
            if n and key.startswith(HOT_IDLE_PREFIXES)
        ]
    if workload == "upload":
        same = all(len(seen) == 1 for seen in fingerprints.values())
    else:
        same = all(
            set(traced.digests[i]) == set(untraced.digests[i])
            for i in set(traced.digests) & set(untraced.digests)
        )
    if not same:
        problems.append("a traced response differs in bytes from the untraced run")
    return problems


def front_end_share(tracer) -> float:
    total = sum(tracer.self_s.values())
    front = sum(tracer.self_s.get(k, 0.0) for k in FRONT_END_KEYS)
    return front / total if total else 0.0


# -- one run ------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, record: bool = False) -> dict:
    deployment = set_up(workload)
    from repro.serve.trace import percentile, zipf_trace
    from tracer import LayerTracer

    clock = time.perf_counter
    stages = {"inputs": clock()}
    first_scene, photos = PHOTOS[workload]
    jpegs = [render(first_scene + i) for i in range(photos)]
    inputs = [
        {"scene": first_scene + i, "bytes": len(j), "sha256": hashlib.sha256(j).hexdigest()}
        for i, j in enumerate(jpegs)
    ]
    rng = random.Random(seed)
    stored = 0
    ids: list[str] = []
    if workload != "upload":
        for jpeg in jpegs:
            response = deployment.upload(jpeg)
            ids.append(response.body.decode())
            headers = response.headers
            stored += int(headers["x-public-bytes"]) + int(headers["x-secret-bytes"])

    # The request sequence, in blocks.  A traced run alternates untraced
    # and traced blocks, so slow drift in machine speed hits both alike.
    fill = Phase()
    if workload == "hot_view":
        requests = [deployment.view(photo_id, user) for user in TENANTS for photo_id in ids]
        for index, photo_id in enumerate(ids):  # cache fill, through the sync gateway
            response = deployment.gateway.handle(deployment.view(photo_id))
            if response.status != 200:
                raise RuntimeError(f"cache fill failed: {response.status}")
            fill.digest(index, response.body)
        zipf = zipf_trace(photos, HOT_PERIOD, s=ZIPF_S, seed=seed)
        period = [rng.randrange(len(TENANTS)) * photos + p for p in zipf]
        count = max(2 * HOT_BLOCK, round(seconds / NOMINAL_S[workload]))
        blocks = [range(i, min(i + HOT_BLOCK, count)) for i in range(0, count, HOT_BLOCK)]
        sampler = random.Random(seed + 1)

        def run_block(block, phase: Phase) -> None:
            run_hot(deployment, requests, period, block, phase, sampler)

    else:
        passes = max(2, math.ceil(seconds / (photos * NOMINAL_S[workload])))
        blocks = pass_order(rng, photos, passes)
        if workload == "cold_view":
            requests = [deployment.view(photo_id) for photo_id in ids]
            drive = run_cold
        else:
            requests = [deployment.post(jpeg) for jpeg in jpegs]
            drive = run_upload

        def run_block(block, phase: Phase) -> None:
            drive(deployment, requests, block, phase)

    untraced, traced = Phase(), Phase()
    tracer = LayerTracer()
    gc.collect()
    first_probe = len(deployment.probe.samples)
    stages["timed"] = clock()
    steal_before = steal_ticks()
    if trace:
        before = cache_counts(deployment)
    for k, block in enumerate(blocks):
        if trace and k % 2:
            with tracer:
                run_block(block, traced)
        else:
            run_block(block, untraced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steal = steal_ticks() - steal_before
    if trace:
        after = cache_counts(deployment)
    phases = [untraced, traced] if trace else [untraced]

    stages["verify"] = clock()
    if workload == "upload":
        failures, fingerprints, psnr_db, views = verify_uploads(deployment, jpegs, phases)
        uploaded = [u for p in phases for u in p.uploads]
        stored = sum(public + secret for _, _, public, secret in uploaded)
        ingested = sum(len(jpegs[index]) for index, *_ in uploaded)
    else:
        failures, fingerprints, psnr_db, views = verify_views(
            deployment, jpegs, ids, [fill, *phases]
        )
        ingested = sum(len(j) for j in jpegs)
    samples = {
        first_scene + index: (list(view.shape), view_samples(first_scene + index, view))
        for index, view in views.items()
    }
    if record:
        record_views(samples)
    for scene in off_record(samples):
        failures += sum(p.served[scene - first_scene] for p in phases)
    stages["end"] = clock()

    attempted = sum(len(p.latencies) for p in phases)
    latencies = untraced.latencies
    speeds = smoothed_speeds(deployment.probe, first_probe)
    scaled = untraced.scaled(speeds)
    probes = deployment.probe.samples[first_probe:]
    marks = list(stages.items())
    result: dict[str, Any] = {
        "attempted": attempted,
        "failed": min(attempted, failures + sum(p.failed for p in phases)),
        "problems": [],
        "inputs": inputs,
        "requests": len(latencies),
        "setup": deployment.phases,
        "stages_s": {a: round(t1 - t0, 3) for (a, t0), (_, t1) in zip(marks, marks[1:])},
        "metrics": {
            "p50_ms": percentile(scaled, 50) * 1000.0,
            "p90_ms": percentile(scaled, 90) * 1000.0,
            "throughput_per_s": len(scaled) / math.fsum(scaled),
            "peak_rss_mb": peak_rss_mb,
            "stored_bytes_ratio": stored / ingested,
            "eq2_psnr_db": psnr_db,
        },
        "unscaled": {
            "p50_ms": percentile(latencies, 50) * 1000.0,
            "p90_ms": percentile(latencies, 90) * 1000.0,
            "throughput_per_s": len(latencies) / math.fsum(latencies),
        },
        "speed": {
            "probes": len(probes),
            "probe_ms_p10_p50_p90": [percentile(probes, q) * 1000.0 for q in (10, 50, 90)],
            "reference_ms": REFERENCE_S * 1000.0,
            "steal_ticks": steal,
        },
    }
    if trace:
        traced_scaled = traced.scaled(speeds)
        speed = math.fsum(traced_scaled) / math.fsum(traced.latencies)
        layers = layer_metrics(tracer, len(traced.latencies), speed, before, after)
        layers["trace.overhead_ratio"] = (
            percentile(traced_scaled, 50) / percentile(scaled, 50) - 1.0
        )
        result["layers"] = layers
        result["problems"] = trace_problems(workload, tracer, untraced, traced, fingerprints)
        result["trace"] = {
            "bindings": tracer.bindings,
            "front_end_share": front_end_share(tracer),
            "traced_requests": len(traced.latencies),
        }
    deployment.close()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-views",
        action="store_true",
        help=f"rewrite this workload's reference-view samples in {VIEWS_FILE.name}",
    )
    args = parser.parse_args(argv)
    if args.setup_only:
        deployment = set_up(args.workload)
        result = {"setup": deployment.phases}
        deployment.close()
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.record_views)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
