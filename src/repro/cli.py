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
keep going past per-file failures.  Every command runs the codec's
cffi-compiled C kernel, which is required; the ``engines`` subcommand
reports whether it loaded, and the build error if it did not.  ``--verbose`` on
encrypt/decrypt prints per-stage wall-clock times (codec vs crypto vs
split) so you can see where a photo's time actually goes.

The serving tier is benchmarked by ``benchmarks/bench_serving.py``
(zipfian trace, cache tiers, ingest overlap) and
``benchmarks/bench_async_serving.py`` (async front end, admission
control, trace scenarios), not from this CLI.
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


def _cmd_engines(args) -> int:
    """Report whether this deployment's codec kernel loaded.

    The key operational question is whether the native kernel actually
    compiled and loaded, and if not, why (no compiler, no cffi, build
    failure): every codec command fails until it does.  ``--json``
    emits the raw mapping for scripts.
    """
    import json

    from repro.jpeg.engines import engine_info

    info = engine_info()
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    native = info["native"]
    print(f"native     {'loaded' if native['available'] else 'unavailable'}")
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

    engines = commands.add_parser(
        "engines",
        help="report codec kernel availability (did the native kernel "
        "load, and if not, why)",
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
