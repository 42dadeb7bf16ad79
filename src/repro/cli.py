"""Command-line interface: P3 photo protection from the shell.

    python -m repro genkey  --output album.key
    python -m repro encrypt --key album.key photo.jpg \\
                            --public pub.jpg --secret photo.p3s
    python -m repro decrypt --key album.key pub.jpg photo.p3s \\
                            --output recon.ppm
    python -m repro batch-encrypt --key album.key --output-dir out/ *.jpg
    python -m repro batch-decrypt --key album.key --output-dir out/ \\
                            out/*.public.jpg
    python -m repro publish --psp facebook,flickr --replicas 2 \\
                            --shards 3 *.jpg
    python -m repro inspect pub.jpg

Inputs may be JPEG (decoded by the built-in codec) or netpbm (P5/P6).
Reconstructed outputs are written as netpbm, which anything can read.
The batch commands fan the per-photo work out over the
:mod:`repro.api` executors (``--executor process`` by default) and
keep going past per-file failures.  Every command runs the best
available entropy engine (the cffi-compiled C kernel, else numpy;
``REPRO_NATIVE=0`` forces numpy) and the ``engines`` subcommand
reports which kernel actually loaded.  ``--verbose`` on
encrypt/decrypt prints per-stage wall-clock times (codec vs crypto vs
split) so you can see where a photo's time actually goes.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
import time

from repro.api.executors import EXECUTOR_KINDS, Executor
from repro.api.pipeline import (
    DecryptTask,
    EncryptTask,
    run_decrypt_task,
    run_encrypt_task,
)
from repro.api.session import BatchFailure, BatchReport, run_sparse_batch
from repro.core import P3Config, P3Decryptor, P3Encryptor
from repro.crypto.keyring import generate_key
from repro.imageio import NetpbmError, read_image, write_image
from repro.jpeg.codec import encode_gray, encode_rgb, image_info

#: CLI defaults mirror the library defaults — one source of truth.
_DEFAULTS = P3Config()

#: File-name conventions the batch commands write and look for.
PUBLIC_SUFFIX = ".public.jpg"
SECRET_SUFFIX = ".secret.p3s"


def _load_pixels(path: pathlib.Path):
    """Read a JPEG or netpbm file into a pixel array."""
    data = path.read_bytes()
    if data[:2] == b"\xff\xd8":
        from repro.jpeg.codec import decode

        return decode(data)
    try:
        return read_image(data)
    except NetpbmError as error:
        raise SystemExit(
            f"{path}: not a JPEG and not netpbm ({error})"
        )


def _load_jpeg(path: pathlib.Path, quality: int) -> bytes:
    """Read a file as JPEG bytes, transcoding netpbm inputs."""
    data = path.read_bytes()
    if data[:2] == b"\xff\xd8":
        return data
    pixels = _load_pixels(path)
    if pixels.ndim == 2:
        return encode_gray(pixels.astype(float), quality=quality)
    return encode_rgb(pixels, quality=quality)


def _config_from(args) -> P3Config:
    """Build the P3Config shared by the single and batch commands."""
    return P3Config(threshold=args.threshold, quality=args.quality)


class _StageClock:
    """Tiny helper for ``--verbose`` per-stage timing."""

    def __init__(self) -> None:
        self.stages: list[tuple[str, float]] = []
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.stages.append((name, now - self._last))
        self._last = now

    def report(self) -> str:
        total = sum(seconds for _, seconds in self.stages)
        parts = ", ".join(
            f"{name} {seconds * 1000:.1f} ms"
            for name, seconds in self.stages
        )
        return f"stages: {parts} (total {total * 1000:.1f} ms)"


def _cmd_genkey(args) -> int:
    key = generate_key(args.size)
    pathlib.Path(args.output).write_bytes(key)
    print(f"wrote {args.size}-byte key to {args.output}")
    return 0


def _cmd_encrypt(args) -> int:
    key = pathlib.Path(args.key).read_bytes()
    config = _config_from(args)
    jpeg = _load_jpeg(pathlib.Path(args.input), args.quality)
    encryptor = P3Encryptor(key, config)
    clock = _StageClock()
    split = encryptor.split_jpeg(jpeg)
    clock.lap("split (codec decode + threshold)")
    public_jpeg = encryptor.public_jpeg_bytes(split)
    clock.lap("public encode (codec)")
    secret_envelope = encryptor.seal_secret(split)
    clock.lap("seal secret (crypto)")
    pathlib.Path(args.public).write_bytes(public_jpeg)
    pathlib.Path(args.secret).write_bytes(secret_envelope)
    original = len(jpeg)
    total_size = len(public_jpeg) + len(secret_envelope)
    print(
        f"public {len(public_jpeg)} B -> {args.public}\n"
        f"secret {len(secret_envelope)} B -> {args.secret}\n"
        f"overhead {(total_size / original - 1) * 100:+.1f}% over "
        f"the {original} B input"
    )
    if args.verbose:
        print(clock.report())
    return 0


def _cmd_decrypt(args) -> int:
    key = pathlib.Path(args.key).read_bytes()
    public = pathlib.Path(args.public).read_bytes()
    secret = pathlib.Path(args.secret).read_bytes()
    decryptor = P3Decryptor(key)
    clock = _StageClock()
    secret_part = decryptor.open_secret(secret)
    clock.lap("open secret (crypto)")
    pixels = decryptor.reconstruct(public, secret_part)
    clock.lap("reconstruct (codec decode + recombine)")
    pathlib.Path(args.output).write_bytes(write_image(pixels))
    shape = "x".join(str(v) for v in pixels.shape[:2][::-1])
    print(f"reconstructed {shape} image -> {args.output}")
    if args.verbose:
        print(clock.report())
    return 0


# -- batch commands -----------------------------------------------------------


def _batch_stem(path: pathlib.Path) -> str:
    """The photo's base name, with the batch suffixes stripped."""
    name = path.name
    for suffix in (PUBLIC_SUFFIX, SECRET_SUFFIX):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return path.stem


def _unique_stems(paths: list[pathlib.Path]) -> list[str]:
    """Collision-free output stems, in input order.

    Inputs from different directories can share a basename; numbering
    the repeats keeps every photo's outputs instead of silently
    overwriting the earlier ones.
    """
    counts: dict[str, int] = {}
    used: set[str] = set()
    stems = []
    for path in paths:
        stem = base = _batch_stem(path)
        while stem in used:
            counts[base] = counts.get(base, 0) + 1
            stem = f"{base}-{counts[base]}"
        used.add(stem)
        stems.append(stem)
    return stems


def _drive_batch(
    operation, args, build_task, run_task, write_result
) -> int:
    """Shared skeleton of the batch commands.

    Loads every input through ``build_task`` (per-file failures become
    "load" entries), fans the tasks out over the configured executor,
    writes successes through ``write_result(stem, value, report)``
    (which returns the per-item message), and prints the standard
    :class:`BatchReport` summary.  Exit code 0 iff nothing failed.
    """
    executor = Executor(args.executor, args.workers or None)
    paths = [pathlib.Path(name) for name in args.inputs]
    stems = _unique_stems(paths)
    report = BatchReport(
        operation=operation, executor=executor.kind, workers=executor.workers
    )
    start = time.perf_counter()
    tasks = []
    for index, path in enumerate(paths):
        try:
            tasks.append(build_task(path))
        except (OSError, NetpbmError, SystemExit) as error:
            tasks.append(None)
            report.failures.append(BatchFailure(index, "load", str(error)))
    report.results = run_sparse_batch(
        executor, run_task, tasks, report, stage="process"
    )
    for index, value in enumerate(report.results):
        if value is None:
            continue
        try:
            print(f"{paths[index]} -> {write_result(stems[index], value, report)}")
        except OSError as error:
            report.results[index] = None
            report.failures.append(BatchFailure(index, "write", str(error)))
    report.failures.sort(key=lambda failure: failure.index)
    for failure in report.failures:
        print(
            f"FAILED {paths[failure.index]}: {failure.error}",
            file=sys.stderr,
        )
    report.elapsed_s = time.perf_counter() - start
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_batch_encrypt(args) -> int:
    key = pathlib.Path(args.key).read_bytes()
    config = _config_from(args)
    output_dir = pathlib.Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    def build_task(path: pathlib.Path) -> EncryptTask:
        data = path.read_bytes()
        if data[:2] == b"\xff\xd8":
            return EncryptTask(key=key, config=config, jpeg=data)
        # Ship netpbm inputs as raw pixels so the JPEG encode — the
        # dominant cost for such corpora — runs in the worker pool too.
        # Coefficients (and thus outputs) are identical to transcoding
        # here first: entropy coding round-trips losslessly.
        return EncryptTask(key=key, config=config, pixels=read_image(data))

    def write_result(stem, photo, report) -> str:
        public_path = output_dir / f"{stem}{PUBLIC_SUFFIX}"
        secret_path = output_dir / f"{stem}{SECRET_SUFFIX}"
        public_path.write_bytes(photo.public_jpeg)
        secret_path.write_bytes(photo.secret_envelope)
        report.bytes_public += photo.public_size
        report.bytes_secret += photo.secret_size
        return (
            f"{public_path.name} ({photo.public_size} B) "
            f"+ {secret_path.name} ({photo.secret_size} B)"
        )

    return _drive_batch(
        "batch-encrypt", args, build_task, run_encrypt_task, write_result
    )


def _cmd_batch_decrypt(args) -> int:
    key = pathlib.Path(args.key).read_bytes()
    output_dir = pathlib.Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    def build_task(path: pathlib.Path) -> DecryptTask:
        secret_path = path.with_name(f"{_batch_stem(path)}{SECRET_SUFFIX}")
        return DecryptTask(
            key=key,
            public_jpeg=path.read_bytes(),
            secret_envelope=secret_path.read_bytes(),
        )

    def write_result(stem, pixels, report) -> str:
        extension = ".ppm" if pixels.ndim == 3 else ".pgm"
        out_path = output_dir / f"{stem}{extension}"
        data = write_image(pixels)
        out_path.write_bytes(data)
        report.bytes_public += len(data)  # reconstructed netpbm bytes
        return out_path.name

    return _drive_batch(
        "batch-decrypt", args, build_task, run_decrypt_task, write_result
    )


def _cmd_publish(args) -> int:
    """Simulated multi-provider publish with per-provider verification.

    Builds a session against the named provider fleet (``--psp a,b,c``)
    and a sharded/replicated secret-part store (``--shards``/
    ``--replicas``), publishes every input through the batch pipeline,
    then reconstructs each photo from *each* provider to prove every
    replica is independently usable.
    """
    from repro.api.session import DownloadRequest, P3Session

    names = [name.strip() for name in args.psp.split(",") if name.strip()]
    if not names:
        raise SystemExit("--psp needs at least one provider name")
    config = dataclasses.replace(
        _config_from(args),
        psps=tuple(names),
        shards=args.shards,
        replication=args.replicas,
        executor=args.executor,
        workers=args.workers,
        ingest_executor=args.ingest_executor,
        ingest_workers=args.workers,
    )
    session = P3Session.create(user="cli", config=config)
    print(
        f"publishing {len(args.inputs)} photo(s) to {session.psp.name} "
        f"(storage: {getattr(session.storage, 'name', 'custom')})"
    )

    paths = [pathlib.Path(name) for name in args.inputs]
    corpus = []
    loadable = []
    for path in paths:
        try:
            corpus.append(_load_jpeg(path, args.quality))
        except (OSError, SystemExit) as error:
            print(f"FAILED {path}: {error}", file=sys.stderr)
            continue
        loadable.append(path)
    report = session.batch_upload(corpus, album=args.album)
    for failure in report.failures:
        print(
            f"FAILED {loadable[failure.index]} [{failure.stage}]: "
            f"{failure.error}",
            file=sys.stderr,
        )

    provider_names = getattr(session.psp, "provider_names", None)
    verified = 0
    verify_failures = 0
    for path, record in zip(loadable, report.results):
        if record is None:
            continue
        for provider in provider_names or [None]:
            request = DownloadRequest(
                photo_id=record.photo_id,
                album=args.album,
                provider=provider,
            )
            try:
                pixels = session.download(request)
            except Exception as error:
                verify_failures += 1
                print(
                    f"VERIFY FAILED {path} via {provider or 'psp'}: "
                    f"{type(error).__name__}: {error}",
                    file=sys.stderr,
                )
                continue
            verified += 1
        print(
            f"{path} -> {record.photo_id} "
            f"({record.public_bytes} B public x{len(provider_names or [0])} "
            f"providers + {record.secret_bytes} B secret x{args.replicas})"
        )
    print(report.summary())
    if args.verbose:
        # Per-provider ingest wall clock (parity with the per-stage
        # timings the encrypt/decrypt commands print).
        ingest_seconds = getattr(session.psp, "ingest_seconds", None)
        if ingest_seconds:
            breakdown = ", ".join(
                f"{alias} {seconds * 1000:.1f} ms"
                for alias, seconds in ingest_seconds.items()
            )
            print(
                f"provider ingest ({config.ingest_executor}): {breakdown} "
                f"(sum {sum(ingest_seconds.values()) * 1000:.1f} ms "
                f"over {report.succeeded} photo(s))"
            )
        else:
            print(
                f"provider ingest: single provider "
                f"({session.psp.name}), see batch summary above"
            )
    print(
        f"verified {verified} provider reconstruction(s), "
        f"{verify_failures} failed"
    )
    ok = report.ok and verify_failures == 0 and len(loadable) == len(paths)
    return 0 if ok else 1


def _cmd_serve_bench(args) -> int:
    """In-process serving-tier benchmark: zipfian viewers vs the caches.

    Spins up a multi-user :class:`~repro.system.gateway.P3Gateway`
    over a simulated PSP, publishes a synthetic corpus, replays a
    zipfian popularity trace through real gateway round trips, and
    reports hit rate, p50/p99 latency and cold-vs-warm speedup.
    Byte-identity of cached serves is verified against a cache-free
    engine on the same backends.
    """
    from repro.api.registry import DEFAULT_REGISTRY
    from repro.datasets import iter_corpus_jpegs
    from repro.serve.engine import ServeRequest, ServingEngine
    from repro.serve.trace import percentile, zipf_trace
    from repro.system.client import PhotoSharingClient
    from repro.system.gateway import USER_HEADER, P3Gateway
    from repro.system.http import HttpRequest, build_url

    config = P3Config(
        quality=args.quality,
        variant_cache=args.variant_cache,
        variant_ttl_s=args.variant_ttl,
        serve_executor=args.serve_executor,
        serve_workers=args.serve_workers,
    )
    psp = DEFAULT_REGISTRY.create_psp(args.psp)
    storage = DEFAULT_REGISTRY.create_storage("dropbox")
    engine = ServingEngine.from_config(
        psp, storage, config, coalesce=not args.no_coalesce
    )
    gateway = P3Gateway(psp, storage, config, engine=engine)

    owner = PhotoSharingClient.for_gateway(gateway, "owner")
    viewers = [
        PhotoSharingClient.for_gateway(gateway, f"viewer{i}")
        for i in range(args.viewers)
    ]
    corpus = list(
        iter_corpus_jpegs(
            "usc", args.photos, size=args.size, quality=args.quality
        )
    )
    receipts = [
        owner.upload_photo(
            jpeg, "bench", viewers={v.user for v in viewers}
        )
        for jpeg in corpus
    ]
    gateway.share_album("owner", "bench", *[v.user for v in viewers])
    pool = (
        "inline"
        if engine.executor is None
        else f"{config.serve_executor} pool x{engine.executor.workers}"
    )
    print(
        f"published {len(receipts)} photo(s) ({args.size}px q{args.quality}) "
        f"to {psp.name}; replaying {args.requests} zipfian requests "
        f"(s={args.zipf}) from {args.viewers} viewer(s); "
        f"cold reconstruction: {pool}"
    )

    trace = zipf_trace(len(receipts), args.requests, s=args.zipf, seed=7)
    latencies: list[float] = []
    warm_flags: list[bool] = []
    for turn, photo_index in enumerate(trace):
        viewer = viewers[turn % len(viewers)]
        request = HttpRequest(
            method="GET",
            url=build_url(
                "https://gateway.example",
                f"/photos/{receipts[photo_index].photo_id}",
                {"album": "bench"},
            ),
            headers={USER_HEADER: viewer.user},
        )
        start = time.perf_counter()
        response = gateway.handle(request)
        latencies.append(time.perf_counter() - start)
        if not response.ok:
            raise SystemExit(
                f"gateway returned {response.status}: {response.body!r}"
            )
        # The response says where it was served from — exact per-request
        # provenance, robust to evictions and TTL expiry.
        warm_flags.append(response.headers["x-cache"] == "variant-cache")

    # Freeze the trace statistics before the identity checks below add
    # their own (warm) serves to the engine's counters.
    snapshot = engine.snapshot()

    # Byte-identity: cached (and possibly pooled) serves vs a
    # cache-free, inline reference engine on the same backends.  Every
    # tier is disabled — the envelope cache too, or the "uncached" leg
    # would quietly share bytes with the engine under test.
    bare = ServingEngine.from_config(
        psp,
        storage,
        dataclasses.replace(
            config,
            variant_cache=0,
            envelope_cache=0,
            serve_executor="serial",
        ),
        secret_cache_limit=0,
    )
    keyring = gateway.keyring_for("owner")
    mismatches = 0
    for receipt in receipts:
        request = ServeRequest(
            photo_id=receipt.photo_id,
            album="bench",
            key=keyring.key_for("bench"),
            requester="owner",
        )
        if (
            engine.serve(request).pixels.tobytes()
            != bare.serve(request).pixels.tobytes()
        ):
            mismatches += 1
            print(
                f"BYTE MISMATCH cached vs uncached: {receipt.photo_id}",
                file=sys.stderr,
            )

    variant = snapshot["variant_cache"]
    miss_lat = [s for s, hit in zip(latencies, warm_flags) if not hit]
    hit_lat = [s for s, hit in zip(latencies, warm_flags) if hit]
    cold_ms = (
        sum(miss_lat) / len(miss_lat) * 1000 if miss_lat else 0.0
    )
    warm_ms = sum(hit_lat) / len(hit_lat) * 1000 if hit_lat else 0.0
    print(
        f"variant cache: {variant['hits']} hits / "
        f"{variant['misses']} misses (hit rate {variant['hit_rate']:.2f})"
    )
    print(
        f"latency: p50 {percentile(latencies, 50) * 1000:.1f} ms, "
        f"p99 {percentile(latencies, 99) * 1000:.1f} ms; "
        f"cold ~{cold_ms:.1f} ms, warm ~{warm_ms:.1f} ms"
        + (
            f" ({cold_ms / warm_ms:.1f}x speedup)"
            if warm_ms > 0 and cold_ms > 0
            else ""
        )
    )
    print(
        f"byte-identity vs cache-free engine: "
        f"{'OK' if mismatches == 0 else f'{mismatches} MISMATCH(ES)'}"
    )
    gateway.close()
    return 0 if mismatches == 0 else 1


def _cmd_serve_load(args) -> int:
    """Replay a timed workload trace through the async front end.

    Builds an in-process deployment (gateway + :class:`~repro.serve.
    async_gateway.AsyncGateway`), generates the requested scenario
    trace — a diurnal day curve, a flash-crowd spike, or a thundering
    herd — registers every tenant the trace drew from its
    million-user population, and replays it open-loop with real async
    round trips.  Reports offered vs served RPS, shed/degraded
    counts, latency percentiles and the admission snapshot; exits
    nonzero if any request came back with an unexpected error status.
    """
    from repro.api.executors import run_async
    from repro.api.registry import DEFAULT_REGISTRY
    from repro.datasets import iter_corpus_jpegs
    from repro.serve.async_gateway import AsyncGateway
    from repro.serve.replay import replay_async, view_request
    from repro.serve.trace import (
        diurnal_trace,
        flash_crowd_trace,
        thundering_herd_trace,
    )
    from repro.system.client import PhotoSharingClient
    from repro.system.gateway import P3Gateway

    if args.scenario == "diurnal":
        events = diurnal_trace(
            tenants=args.population,
            photos=args.photos,
            duration_s=args.duration,
            peak_rps=args.rate,
            seed=args.seed,
        )
    elif args.scenario == "flash-crowd":
        events = flash_crowd_trace(
            tenants=args.population,
            photos=args.photos,
            duration_s=args.duration,
            base_rps=args.rate,
            spike_rps=args.spike_rps or args.rate * 6,
            spike_start_s=args.duration / 4,
            spike_duration_s=args.duration / 2,
            seed=args.seed,
        )
    else:  # herd
        events = thundering_herd_trace(
            tenants=args.population, herd_size=args.herd, seed=args.seed
        )
    tenants = sorted({event.tenant for event in events})

    config = P3Config(
        quality=args.quality,
        max_inflight=args.max_inflight,
        tenant_rps=args.tenant_rps,
        queue_deadline_ms=args.queue_deadline_ms,
        degrade_mode=args.degrade_mode,
    )
    psp = DEFAULT_REGISTRY.create_psp(args.psp)
    storage = DEFAULT_REGISTRY.create_storage("dropbox")
    gateway = P3Gateway(psp, storage, config)
    owner = PhotoSharingClient.for_gateway(gateway, "owner")
    corpus = iter_corpus_jpegs(
        "usc", args.photos, size=args.size, quality=args.quality
    )
    receipts = [
        owner.upload_photo(jpeg, "bench", viewers=set(tenants))
        for jpeg in corpus
    ]
    for name in tenants:
        gateway.add_user(name)
    gateway.share_album("owner", "bench", *tenants)
    photo_ids = [receipt.photo_id for receipt in receipts]
    front = AsyncGateway(gateway)
    print(
        f"serve-load: {args.scenario} trace, {len(events)} arrivals from "
        f"{len(tenants)} tenants (population {args.population}) over "
        f"{len(photo_ids)} photo(s); max_inflight={config.max_inflight}, "
        f"queue_deadline={config.queue_deadline_ms:.0f} ms, "
        f"degrade_mode={config.degrade_mode}"
    )

    report = run_async(
        replay_async(
            front.handle,
            events,
            lambda event: view_request(event, photo_ids, album="bench"),
            client_rtt_s=args.client_rtt_ms / 1000.0,
        )
    )
    report.scenario = args.scenario
    frontend = front.frontend.snapshot()
    admission = front.controller.snapshot()
    front.close()

    print(
        f"offered {report.offered_rps:.1f} rps, served "
        f"{len(report.served)} full ({report.served_rps:.1f} rps) + "
        f"{len(report.degraded)} degraded preview(s), "
        f"{len(report.rejected)} x 503, {len(report.errors)} error(s)"
    )
    print(
        f"latency: p50 {report.latency_ms(50):.1f} ms, "
        f"p99 {report.latency_ms(99):.1f} ms, "
        f"p99.9 {report.latency_ms(99.9):.1f} ms (full serves); "
        f"degraded p99 {frontend['degraded_p99_ms']:.1f} ms"
    )
    print(
        f"admission: {frontend['admitted']} admitted "
        f"({frontend['loop_hits']} on-loop cache hits), "
        f"shed {frontend['shed_total']} {frontend['shed'] or '{}'}, "
        f"queue max {frontend['queue_depth_max']}"
        f"/{admission['queue_capacity']}"
    )
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "replay": report.summary(),
                    "frontend": frontend,
                    "admission": admission,
                },
                indent=2,
            )
        )
    return 0 if not report.errors else 1


def _cmd_engines(args) -> int:
    """Report which entropy codec engines this deployment can run.

    The key operational question is whether the native kernel actually
    compiled and loaded or whether ``native`` silently degrades to
    numpy — and if it degraded, why (no compiler, ``REPRO_NATIVE=0``,
    build failure).  ``--json`` emits the raw mapping for scripts.
    """
    import json

    from repro.jpeg.engines import engine_info

    info = engine_info()
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    native = info["native"]
    print(f"engines    {', '.join(info['engines'])}")
    print(f"default    {info['default']}")
    print(f"native     {'loaded' if native['available'] else 'unavailable'}")
    if native.get("disabled_by_env"):
        print("           disabled by REPRO_NATIVE=0")
    if native.get("build_error"):
        print(f"           build error: {native['build_error']}")
    if native.get("artifact"):
        print(f"artifact   {native['artifact']}")
    print(f"digest     {native['source_digest']}")
    return 0


def _cmd_inspect(args) -> int:
    data = pathlib.Path(args.input).read_bytes()
    info = image_info(data)
    print(f"{args.input}:")
    print(f"  dimensions   {info.width}x{info.height}")
    print(f"  components   {info.num_components}")
    print(f"  progressive  {info.progressive} ({info.num_scans} scans)")
    print(f"  app markers  {', '.join(info.app_markers) or '(none)'}")
    print(f"  comment      {info.has_comment}")
    return 0


def _add_codec_options(parser: argparse.ArgumentParser) -> None:
    """P3 parameters shared by the encrypting commands."""
    parser.add_argument(
        "--threshold", type=int, default=_DEFAULTS.threshold
    )
    parser.add_argument("--quality", type=int, default=_DEFAULTS.quality)


def _add_verbose_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="print per-stage wall-clock times (codec vs crypto vs split)",
    )


def _add_executor_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default="process",
        help="executor kind for the batch (default: process)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="pool size for thread/process executors (0 = one per CPU)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="P3 privacy-preserving photo sharing (NSDI 2013)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    genkey = commands.add_parser("genkey", help="generate an album key")
    genkey.add_argument("--output", required=True)
    genkey.add_argument(
        "--size", type=int, default=16, choices=(16, 24, 32)
    )
    genkey.set_defaults(handler=_cmd_genkey)

    encrypt = commands.add_parser(
        "encrypt", help="split + encrypt a photo"
    )
    encrypt.add_argument("input", help="JPEG or netpbm photo")
    encrypt.add_argument("--key", required=True)
    encrypt.add_argument("--public", required=True, help="public JPEG out")
    encrypt.add_argument("--secret", required=True, help="secret envelope out")
    _add_codec_options(encrypt)
    _add_verbose_flag(encrypt)
    encrypt.set_defaults(handler=_cmd_encrypt)

    decrypt = commands.add_parser(
        "decrypt", help="decrypt + reconstruct a photo"
    )
    decrypt.add_argument("public", help="public JPEG (possibly resized)")
    decrypt.add_argument("secret", help="secret envelope")
    decrypt.add_argument("--key", required=True)
    decrypt.add_argument("--output", required=True, help="netpbm out")
    _add_verbose_flag(decrypt)
    decrypt.set_defaults(handler=_cmd_decrypt)

    batch_encrypt = commands.add_parser(
        "batch-encrypt",
        help="split + encrypt many photos via the parallel pipeline",
    )
    batch_encrypt.add_argument("inputs", nargs="+", help="JPEG/netpbm photos")
    batch_encrypt.add_argument("--key", required=True)
    batch_encrypt.add_argument(
        "--output-dir",
        required=True,
        help=f"writes <stem>{PUBLIC_SUFFIX} + <stem>{SECRET_SUFFIX} here",
    )
    _add_codec_options(batch_encrypt)
    _add_executor_options(batch_encrypt)
    batch_encrypt.set_defaults(handler=_cmd_batch_encrypt)

    batch_decrypt = commands.add_parser(
        "batch-decrypt",
        help="decrypt + reconstruct many photos via the parallel pipeline",
    )
    batch_decrypt.add_argument(
        "inputs",
        nargs="+",
        help=f"public JPEGs; each needs a sibling <stem>{SECRET_SUFFIX}",
    )
    batch_decrypt.add_argument("--key", required=True)
    batch_decrypt.add_argument(
        "--output-dir", required=True, help="netpbm outputs land here"
    )
    _add_executor_options(batch_decrypt)
    batch_decrypt.set_defaults(handler=_cmd_batch_decrypt)

    publish = commands.add_parser(
        "publish",
        help="simulated multi-provider publish (fan-out PSPs + "
        "replicated secret-part stores) with per-provider verification",
    )
    publish.add_argument("inputs", nargs="+", help="JPEG/netpbm photos")
    publish.add_argument(
        "--psp",
        default="facebook",
        help="comma-separated provider names to fan out to "
        "(e.g. facebook,flickr,photobucket)",
    )
    publish.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="copies of each secret part across the store fleet",
    )
    publish.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of backing secret-part stores",
    )
    publish.add_argument("--album", default="cli")
    publish.add_argument(
        "--ingest-executor",
        choices=("serial", "thread"),
        default=_DEFAULTS.ingest_executor,
        help="overlap per-provider uploads and per-replica puts on a "
        "thread pool of --workers threads, 0 = min(32, CPUs + 4) "
        "(default: serial)",
    )
    _add_codec_options(publish)
    _add_executor_options(publish)
    _add_verbose_flag(publish)
    publish.set_defaults(handler=_cmd_publish)

    serve_bench = commands.add_parser(
        "serve-bench",
        help="benchmark the serving tier: zipfian viewer trace through "
        "a multi-user gateway, cache hit rate + latency percentiles",
    )
    serve_bench.add_argument("--psp", default="facebook")
    serve_bench.add_argument(
        "--photos", type=int, default=6, help="corpus size"
    )
    serve_bench.add_argument(
        "--requests", type=int, default=48, help="trace length"
    )
    serve_bench.add_argument(
        "--viewers", type=int, default=4, help="gateway tenants"
    )
    serve_bench.add_argument(
        "--zipf", type=float, default=1.1, help="popularity skew exponent"
    )
    serve_bench.add_argument("--size", type=int, default=192)
    serve_bench.add_argument("--quality", type=int, default=_DEFAULTS.quality)
    serve_bench.add_argument(
        "--variant-cache",
        type=int,
        default=_DEFAULTS.variant_cache,
        help="decoded-variant cache entries (0 disables the tier)",
    )
    serve_bench.add_argument(
        "--variant-ttl",
        type=float,
        default=_DEFAULTS.variant_ttl_s,
        help="decoded-variant TTL seconds (0 = no expiry)",
    )
    serve_bench.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable single-flight request coalescing",
    )
    serve_bench.add_argument(
        "--serve-executor",
        choices=EXECUTOR_KINDS,
        default=_DEFAULTS.serve_executor,
        help="where cold reconstructions run: inline ('serial') or on "
        "one worker pool shared by concurrent requests",
    )
    serve_bench.add_argument(
        "--serve-workers",
        type=int,
        default=_DEFAULTS.serve_workers,
        help="pool width for --serve-executor (0 = one per CPU)",
    )
    serve_bench.set_defaults(handler=_cmd_serve_bench)

    serve_load = commands.add_parser(
        "serve-load",
        help="replay a timed workload trace (diurnal, flash-crowd, "
        "herd) through the async front end with admission control",
    )
    serve_load.add_argument(
        "--scenario",
        choices=("diurnal", "flash-crowd", "herd"),
        default="flash-crowd",
    )
    serve_load.add_argument("--psp", default="facebook")
    serve_load.add_argument(
        "--photos", type=int, default=6, help="corpus size"
    )
    serve_load.add_argument("--size", type=int, default=160)
    serve_load.add_argument("--quality", type=int, default=_DEFAULTS.quality)
    serve_load.add_argument(
        "--population",
        type=int,
        default=1_000_000,
        help="tenant population the trace draws viewers from",
    )
    serve_load.add_argument(
        "--duration", type=float, default=4.0, help="trace window seconds"
    )
    serve_load.add_argument(
        "--rate",
        type=float,
        default=30.0,
        help="peak rps (diurnal) or base rps (flash-crowd)",
    )
    serve_load.add_argument(
        "--spike-rps",
        type=float,
        default=None,
        help="flash-crowd spike rate (default: 6x --rate)",
    )
    serve_load.add_argument(
        "--herd", type=int, default=64, help="herd scenario arrival count"
    )
    serve_load.add_argument(
        "--client-rtt-ms",
        type=float,
        default=10.0,
        help="simulated client link round trip",
    )
    serve_load.add_argument(
        "--max-inflight", type=int, default=_DEFAULTS.max_inflight
    )
    serve_load.add_argument(
        "--tenant-rps", type=float, default=_DEFAULTS.tenant_rps
    )
    serve_load.add_argument(
        "--queue-deadline-ms",
        type=float,
        default=_DEFAULTS.queue_deadline_ms,
    )
    serve_load.add_argument(
        "--degrade-mode",
        choices=("preview", "reject"),
        default=_DEFAULTS.degrade_mode,
    )
    serve_load.add_argument("--seed", type=int, default=7)
    serve_load.add_argument(
        "--json",
        action="store_true",
        help="also emit the full replay/frontend/admission snapshot",
    )
    serve_load.set_defaults(handler=_cmd_serve_load)

    engines = commands.add_parser(
        "engines",
        help="report codec engine availability (did the native kernel "
        "load, or did it fall back to numpy — and why)",
    )
    engines.add_argument(
        "--json",
        action="store_true",
        help="emit the raw engine_info() mapping as JSON",
    )
    engines.set_defaults(handler=_cmd_engines)

    inspect = commands.add_parser(
        "inspect", help="show JPEG header facts"
    )
    inspect.add_argument("input")
    inspect.set_defaults(handler=_cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
