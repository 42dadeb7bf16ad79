"""Multi-PSP fan-out + replicated secret-part storage: throughput & parity.

Publishes a synthetic corpus through :class:`~repro.api.fanout.
FanoutPSP` fleets of growing size (1, 2, 3 providers) over a
3-shard / 2-replica :class:`~repro.api.fanout.ReplicatedBlobStore`,
recording upload/download throughput and byte volumes per provider
count into ``BENCH_fanout.json``.

Correctness is enforced, not sampled: every photo is reconstructed
from *every* provider and compared byte-for-byte against the
single-provider path (same keyring, same config, that provider alone)
— then one storage shard is wiped and the comparison repeats, proving
read-repair covers the loss.  Any mismatch hard-fails the run.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_fanout.py
    PYTHONPATH=src python benchmarks/bench_fanout.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

from repro.api import DownloadRequest, P3Session
from repro.core import P3Config
from repro.crypto.keyring import Keyring
from repro.datasets import iter_corpus_jpegs
from repro.serve.keys import secret_blob_key

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

PROVIDER_POOL = ("facebook", "flickr", "photobucket")
ALBUM = "bench"
SHARDS = 3
REPLICAS = 2


def fixed_keyring() -> Keyring:
    keys = Keyring("bench")
    keys.add_key(ALBUM, bytes(range(16)))
    return keys


def single_provider_reconstructions(
    name: str, corpus: list[bytes], config: P3Config
) -> list[bytes]:
    """The reference: that provider alone, plain store, same keys."""
    session = P3Session.create(
        psp=name, storage="dropbox", keyring=fixed_keyring(), config=config
    )
    records = [session.upload(jpeg, album=ALBUM) for jpeg in corpus]
    return [
        session.download(record.photo_id, album=ALBUM).tobytes()
        for record in records
    ]


def wipe_store(store) -> int:
    """Empty one backing store; returns how many blobs were lost."""
    keys = list(store.keys())
    for key in keys:
        store.delete(key)
    return len(keys)


def run(count: int, size: int, quality: int, max_providers: int) -> dict:
    base_config = P3Config(quality=quality)
    corpus = list(iter_corpus_jpegs("usc", count, size=size, quality=quality))
    print(
        f"corpus: {count} x {size}px q{quality} "
        f"({sum(len(j) for j in corpus)} JPEG bytes), "
        f"shards={SHARDS}, replicas={REPLICAS}, cpu_count={os.cpu_count()}"
    )

    references = {
        name: single_provider_reconstructions(name, corpus, base_config)
        for name in PROVIDER_POOL[:max_providers]
    }

    per_fleet: dict[str, dict] = {}
    mismatches = 0
    for n in range(1, max_providers + 1):
        names = PROVIDER_POOL[:n]
        config = P3Config(
            quality=quality, psps=names, shards=SHARDS, replication=REPLICAS
        )
        session = P3Session.create(keyring=fixed_keyring(), config=config)

        up = session.batch_upload(corpus, album=ALBUM)
        if not up.ok:
            raise SystemExit(f"{n}-provider batch_upload failed: {up.failures}")

        provider_names = (
            session.psp.provider_names if n > 1 else [None]
        )
        requests = [
            DownloadRequest(
                photo_id=record.photo_id, album=ALBUM, provider=provider
            )
            for provider in provider_names
            for record in up.results
        ]
        start = time.perf_counter()
        down = session.batch_download(requests)
        download_s = time.perf_counter() - start
        if not down.ok:
            raise SystemExit(
                f"{n}-provider batch_download failed: {down.failures}"
            )

        # Byte-identity: each provider's reconstruction must equal the
        # single-provider path for that provider.
        for p_index, provider in enumerate(provider_names):
            reference = references[provider or names[0]]
            got = [
                pixels.tobytes()
                for pixels in down.results[
                    p_index * count : (p_index + 1) * count
                ]
            ]
            if got != reference:
                mismatches += 1
                print(
                    f"BYTE MISMATCH: {n}-provider fleet via "
                    f"{provider or names[0]}", file=sys.stderr
                )

        # Wipe one shard and reconstruct again: read-repair must cover.
        storage = session.storage
        lost = wipe_store(storage.stores[0])
        repairs_before = storage.repairs
        redo = session.batch_download(requests)
        if not redo.ok:
            raise SystemExit(
                f"{n}-provider re-download after shard wipe failed: "
                f"{redo.failures}"
            )
        if [p.tobytes() for p in redo.results] != [
            p.tobytes() for p in down.results
        ]:
            mismatches += 1
            print(
                f"BYTE MISMATCH after shard wipe ({n} providers)",
                file=sys.stderr,
            )
        healed = sum(
            storage.stores[0].exists(
                secret_blob_key(ALBUM, record.photo_id)
            )
            for record in up.results
        )

        stored_secret = sum(
            getattr(store, "bytes_stored", 0) for store in storage.stores
        )
        per_fleet[str(n)] = {
            "providers": list(names),
            "upload_s": round(up.elapsed_s, 4),
            "upload_imgs_per_s": round(up.throughput, 2),
            "download_s": round(download_s, 4),
            "download_imgs_per_s": round(down.succeeded / download_s, 2),
            "bytes_public_part": up.bytes_public,
            "bytes_published_to_psps": up.bytes_public * n,
            "bytes_secret_part": up.bytes_secret,
            "bytes_stored_with_replication": stored_secret,
            "shard_wipe": {
                "blobs_lost": lost,
                "read_repairs": storage.repairs - repairs_before,
                "blobs_healed_on_wiped_store": healed,
            },
        }
        print(
            f"{n} provider(s): upload {up.throughput:6.2f} img/s  "
            f"download {down.succeeded / download_s:6.2f} img/s  "
            f"(psp bytes x{n}, {storage.repairs - repairs_before} repairs "
            f"after wiping {lost} blobs)"
        )

    if mismatches:
        raise SystemExit(
            f"{mismatches} byte mismatch(es) across replicas — the "
            "fan-out layer is broken"
        )
    print("byte-identical reconstruction from every provider: OK")

    return {
        "benchmark": "fanout",
        "description": (
            "Multi-PSP fan-out publish + provider-pinned download "
            "throughput vs provider count, over a sharded+replicated "
            "secret-part store with one shard wiped mid-run; "
            "reconstructions verified byte-identical to each "
            "single-provider path"
        ),
        "cpu_count": os.cpu_count(),
        "corpus": {
            "kind": "usc", "count": count, "size": size, "quality": quality
        },
        "shards": SHARDS,
        "replication": REPLICAS,
        "fleets": per_fleet,
        "byte_identical": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=8)
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--quality", type=int, default=85)
    parser.add_argument(
        "--providers", type=int, default=3, choices=(1, 2, 3)
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast configuration for CI (still verifies identity)",
    )
    args = parser.parse_args()
    if args.smoke:
        args.count, args.size = 3, 128

    result = run(args.count, args.size, args.quality, args.providers)
    result["smoke"] = args.smoke
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "BENCH_fanout.json"
    path.write_text(json.dumps(result, indent=2))
    print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
