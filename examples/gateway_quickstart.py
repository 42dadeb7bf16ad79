"""Multi-user gateway quickstart: many viewers, one serving tier.

The paper deploys one trusted proxy per device; this demo runs the
same trusted logic as a *shared* middlebox — a
:class:`~repro.system.gateway.P3Gateway` serving a whole household:

    python examples/gateway_quickstart.py

Alice publishes an album through the gateway; five viewers hit the
same photo over plain HTTP round trips.  The first view reconstructs;
every later view — whoever asks — is served from the shared cache in
microseconds, concurrent viewers of a cold photo share a single
reconstruction, and a tenant who was never given the album key
still only ever sees the degraded public part.

The shared engine stacks three cache tiers: decoded variants
(finished pixels, LRU + TTL), decrypted secret parts, and raw secret
*envelopes* straight from storage — the last shared with the batch
pipeline, so `batch_download` warms interactive serves and vice
versa.  Each tier is partitioned by tenant key (album for envelopes)
with a protected per-partition quota
(``P3Config.cache_partition_quota``), so one viral album cannot evict
every other tenant's working set; ``engine.snapshot()["partitions"]``
— also on the gateway's ``/stats`` endpoint — breaks hits, misses and
evictions down per partition.
"""

from __future__ import annotations

import threading
import time

from repro.core import P3Config
from repro.datasets import render_scene
from repro.jpeg.codec import encode_rgb
from repro.system.client import PhotoSharingClient
from repro.system.gateway import P3Gateway
from repro.system.psp import FacebookPSP
from repro.system.storage import CloudStorage


def main() -> None:
    gateway = P3Gateway(
        FacebookPSP(), CloudStorage(), P3Config(threshold=15, quality=85)
    )

    # -- one uploader, five viewers, one shared serving engine -------------
    alice = PhotoSharingClient.for_gateway(gateway, "alice")
    viewer_names = [f"viewer{i}" for i in range(5)]
    viewers = [
        PhotoSharingClient.for_gateway(gateway, name)
        for name in viewer_names
    ]

    jpeg = encode_rgb(render_scene(seed=0, height=256, width=256), quality=85)
    receipt = alice.upload_photo(jpeg, "family", viewers=set(viewer_names))
    gateway.share_album("alice", "family", *viewer_names)
    print(f"alice published {receipt.photo_id} ({receipt.public_bytes} B "
          f"public + {receipt.secret_bytes} B secret)")

    # -- sequential viewers: first reconstructs, the rest hit the cache ----
    for viewer in viewers[:3]:
        start = time.perf_counter()
        pixels = viewer.view_photo(receipt.photo_id, "family")
        print(
            f"{viewer.user}: {pixels.shape[1]}x{pixels.shape[0]} in "
            f"{(time.perf_counter() - start) * 1000:7.2f} ms "
            f"[{viewer.request_log[-1].path}]"
        )

    # -- a concurrent burst on a cold variant coalesces --------------------
    gateway.engine.variant_cache.clear()
    results = []

    def view(viewer: PhotoSharingClient) -> None:
        results.append(
            viewer.view_photo(receipt.photo_id, "family", resolution=130)
        )

    threads = [
        threading.Thread(target=view, args=(viewer,)) for viewer in viewers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    coalesced = gateway.engine.stats.count("coalesced")
    assert len({pixels.tobytes() for pixels in results}) == 1
    print(
        f"burst of {len(threads)} concurrent viewers: "
        f"{coalesced} coalesced onto the leader's reconstruction, "
        "all byte-identical"
    )

    # -- no key, no photo ---------------------------------------------------
    mallory = PhotoSharingClient.for_gateway(gateway, "mallory")
    try:
        mallory.view_photo(receipt.photo_id, "family")
    except RuntimeError as error:
        print(f"mallory (not a viewer): {error}")

    carol = PhotoSharingClient.for_gateway(gateway, "carol")
    receipt2 = alice.upload_photo(jpeg, "family", viewers={"carol"})
    degraded = carol.view_photo(receipt2.photo_id, "family")
    print(
        f"carol (PSP access, no album key): sees only the degraded "
        f"public part ({degraded.shape[1]}x{degraded.shape[0]})"
    )

    snapshot = gateway.engine.snapshot()
    print(
        f"engine: {snapshot['serving']['requests']} requests, "
        f"{snapshot['serving']['reconstructions']} reconstructions, "
        f"variant hit rate {snapshot['variant_cache']['hit_rate']:.2f}, "
        f"p50 {snapshot['serving']['p50_ms']} ms"
    )
    # Per-tenant cache accounting (the same breakdown /stats serves).
    for partition, stats in snapshot["partitions"]["variant_cache"].items():
        print(
            f"  variant partition {partition}: {stats['entries']} entries, "
            f"{stats['hits']} hits, {stats['evictions']} evictions"
        )


if __name__ == "__main__":
    main()
